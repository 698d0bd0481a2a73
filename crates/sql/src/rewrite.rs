//! Rule-based plan rewriter and cost-based plan selection.
//!
//! The rewriter transforms the binder's canonical plan with a small rule
//! catalog, applied to a fixpoint:
//!
//! - **lazy-fill** — prune [`Plan::CrowdFill`] slots nothing above reads.
//! - **predicate-pushdown** — sink machine filters below crowd operators
//!   they don't depend on and into join inputs (machine-side
//!   pre-filtering before crowd joins).
//! - **fill-pushdown** — move fills from above a cross join into the
//!   side that owns the column, so joins combine already-filled rows.
//! - **hash-join-promotion** — turn a cross-side machine equality over a
//!   cross join into a [`Plan::HashJoin`].
//! - **crowd-join** — turn `CROWDEQUAL` over a cross join into a
//!   [`Plan::CrowdJoin`].
//! - **crowd-join-reorder** — probe a crowd join from the side the
//!   [`Estimator`] predicts is smaller (fewer batching rounds).
//! - **topk-fusion** — fuse `LIMIT k` into a crowd sort as a top-k
//!   tournament.
//! - **op-batching** — set the batch knob on fill/join operators.
//!
//! Selection is cost-based: the fully rewritten plan, its unfused
//! variant, and the canonical plan are scored with the crowd-native
//! [`Estimator`], and the cheapest wins — so the optimizer's predicted
//! cost never exceeds the naive plan's.

use std::collections::BTreeSet;

use crate::ast::CompareOp;
use crate::cost::Estimator;
use crate::ir::{BoundExpr, BoundPredicate, Plan, Side};

/// A rewritten plan plus the names of the rules that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Rewritten {
    /// The chosen plan.
    pub plan: Plan,
    /// Rules applied (sorted, deduplicated). Empty when the canonical
    /// plan won.
    pub rules: Vec<&'static str>,
}

type Applied = BTreeSet<&'static str>;

/// Applies one transform to every child, rebuilding the node.
fn map_children(plan: Plan, f: &mut dyn FnMut(Plan) -> Plan) -> Plan {
    match plan {
        Plan::Scan { .. } => plan,
        Plan::CrossJoin { left, right } => Plan::CrossJoin {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
        },
        Plan::HashJoin {
            left,
            right,
            left_slot,
            right_slot,
        } => Plan::HashJoin {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            left_slot,
            right_slot,
        },
        Plan::CrowdJoin {
            left,
            right,
            left_expr,
            right_expr,
            redundancy,
            batch,
            outer,
        } => Plan::CrowdJoin {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            left_expr,
            right_expr,
            redundancy,
            batch,
            outer,
        },
        Plan::Filter { input, predicates } => Plan::Filter {
            input: Box::new(f(*input)),
            predicates,
        },
        Plan::CrowdFill {
            input,
            slots,
            redundancy,
            batch,
        } => Plan::CrowdFill {
            input: Box::new(f(*input)),
            slots,
            redundancy,
            batch,
        },
        Plan::CrowdCompare {
            input,
            predicates,
            redundancy,
        } => Plan::CrowdCompare {
            input: Box::new(f(*input)),
            predicates,
            redundancy,
        },
        Plan::Sort { input, slot, asc } => Plan::Sort {
            input: Box::new(f(*input)),
            slot,
            asc,
        },
        Plan::CrowdSort {
            input,
            slot,
            top_k,
            redundancy,
        } => Plan::CrowdSort {
            input: Box::new(f(*input)),
            slot,
            top_k,
            redundancy,
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(f(*input)),
            n,
        },
        Plan::Project { input, slots } => Plan::Project {
            input: Box::new(f(*input)),
            slots,
        },
        Plan::CountStar { input } => Plan::CountStar {
            input: Box::new(f(*input)),
        },
    }
}

/// lazy-fill: drop fill slots that nothing above the fill reads.
/// `needed` is the set of this node's output slots read above it.
fn prune_fill(plan: Plan, needed: &BTreeSet<usize>, applied: &mut Applied) -> Plan {
    match plan {
        Plan::Project { input, slots } => {
            let inner: BTreeSet<usize> = if slots.is_empty() {
                (0..input.width()).collect()
            } else {
                slots.iter().map(|s| s.slot).collect()
            };
            Plan::Project {
                input: Box::new(prune_fill(*input, &inner, applied)),
                slots,
            }
        }
        // COUNT(*) reads no columns — crowd columns no predicate touches
        // never need filling to count rows.
        Plan::CountStar { input } => Plan::CountStar {
            input: Box::new(prune_fill(*input, &BTreeSet::new(), applied)),
        },
        Plan::Filter { input, predicates } => {
            let mut n = needed.clone();
            for p in &predicates {
                n.extend(p.slots());
            }
            Plan::Filter {
                input: Box::new(prune_fill(*input, &n, applied)),
                predicates,
            }
        }
        Plan::CrowdCompare {
            input,
            predicates,
            redundancy,
        } => {
            let mut n = needed.clone();
            for p in &predicates {
                n.extend(p.slots());
            }
            Plan::CrowdCompare {
                input: Box::new(prune_fill(*input, &n, applied)),
                predicates,
                redundancy,
            }
        }
        Plan::Sort { input, slot, asc } => {
            let mut n = needed.clone();
            n.insert(slot.slot);
            Plan::Sort {
                input: Box::new(prune_fill(*input, &n, applied)),
                slot,
                asc,
            }
        }
        Plan::CrowdSort {
            input,
            slot,
            top_k,
            redundancy,
        } => {
            let mut n = needed.clone();
            n.insert(slot.slot);
            Plan::CrowdSort {
                input: Box::new(prune_fill(*input, &n, applied)),
                slot,
                top_k,
                redundancy,
            }
        }
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(prune_fill(*input, needed, applied)),
            n,
        },
        Plan::CrowdFill {
            input,
            slots,
            redundancy,
            batch,
        } => {
            let kept: Vec<_> = slots
                .iter()
                .filter(|s| needed.contains(&s.slot))
                .cloned()
                .collect();
            if kept.len() != slots.len() {
                applied.insert("lazy-fill");
            }
            let inner = prune_fill(*input, needed, applied);
            if kept.is_empty() {
                inner
            } else {
                Plan::CrowdFill {
                    input: Box::new(inner),
                    slots: kept,
                    redundancy,
                    batch,
                }
            }
        }
        Plan::CrossJoin { left, right } => {
            let lw = left.width();
            let (ln, rn) = split_needed(needed, lw);
            Plan::CrossJoin {
                left: Box::new(prune_fill(*left, &ln, applied)),
                right: Box::new(prune_fill(*right, &rn, applied)),
            }
        }
        Plan::HashJoin {
            left,
            right,
            left_slot,
            right_slot,
        } => {
            let lw = left.width();
            let mut n = needed.clone();
            n.insert(left_slot.slot);
            n.insert(right_slot.slot);
            let (ln, rn) = split_needed(&n, lw);
            Plan::HashJoin {
                left: Box::new(prune_fill(*left, &ln, applied)),
                right: Box::new(prune_fill(*right, &rn, applied)),
                left_slot,
                right_slot,
            }
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
            let lw = left.width();
            let mut n = needed.clone();
            n.extend(left_expr.slot());
            n.extend(right_expr.slot());
            let (ln, rn) = split_needed(&n, lw);
            Plan::CrowdJoin {
                left: Box::new(prune_fill(*left, &ln, applied)),
                right: Box::new(prune_fill(*right, &rn, applied)),
                left_expr,
                right_expr,
                redundancy,
                batch,
                outer,
            }
        }
        Plan::Scan { .. } => plan,
    }
}

fn split_needed(needed: &BTreeSet<usize>, lw: usize) -> (BTreeSet<usize>, BTreeSet<usize>) {
    let ln = needed.iter().filter(|&&s| s < lw).copied().collect();
    let rn = needed
        .iter()
        .filter(|&&s| s >= lw)
        .map(|s| s - lw)
        .collect();
    (ln, rn)
}

/// predicate-pushdown: sink every machine filter as deep as legality
/// allows — below crowd filters always, below fills that don't produce a
/// column it reads, and into the join input that owns all its columns.
fn pushdown(plan: Plan, applied: &mut Applied) -> Plan {
    match plan {
        Plan::Filter { input, predicates } => {
            let mut inner = pushdown(*input, applied);
            for p in predicates {
                inner = sink(p, inner, applied);
            }
            inner
        }
        other => map_children(other, &mut |c| pushdown(c, applied)),
    }
}

fn sink(pred: BoundPredicate, plan: Plan, applied: &mut Applied) -> Plan {
    match plan {
        // Slide below already-placed filters so later predicates keep
        // descending.
        Plan::Filter { input, predicates } => Plan::Filter {
            input: Box::new(sink(pred, *input, applied)),
            predicates,
        },
        Plan::CrowdFill {
            input,
            slots,
            redundancy,
            batch,
        } if !pred
            .slots()
            .iter()
            .any(|s| slots.iter().any(|fs| fs.slot == *s)) =>
        {
            applied.insert("predicate-pushdown");
            Plan::CrowdFill {
                input: Box::new(sink(pred, *input, applied)),
                slots,
                redundancy,
                batch,
            }
        }
        // A machine check is always cheaper than a crowd verdict: filter
        // first, ask the crowd about survivors.
        Plan::CrowdCompare {
            input,
            predicates,
            redundancy,
        } => {
            applied.insert("predicate-pushdown");
            Plan::CrowdCompare {
                input: Box::new(sink(pred, *input, applied)),
                predicates,
                redundancy,
            }
        }
        Plan::CrossJoin { left, right } => {
            match sink_into_join_side(pred, *left, *right, applied) {
                (None, l, r) => Plan::CrossJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                },
                (Some(pred), l, r) => wrap(
                    pred,
                    Plan::CrossJoin {
                        left: Box::new(l),
                        right: Box::new(r),
                    },
                ),
            }
        }
        Plan::HashJoin {
            left,
            right,
            left_slot,
            right_slot,
        } => match sink_into_join_side(pred, *left, *right, applied) {
            (None, l, r) => Plan::HashJoin {
                left: Box::new(l),
                right: Box::new(r),
                left_slot,
                right_slot,
            },
            (Some(pred), l, r) => wrap(
                pred,
                Plan::HashJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                    left_slot,
                    right_slot,
                },
            ),
        },
        // Machine-side pre-filtering before a crowd join: every row
        // removed here deletes a whole stripe of paid verdicts.
        Plan::CrowdJoin {
            left,
            right,
            left_expr,
            right_expr,
            redundancy,
            batch,
            outer,
        } => match sink_into_join_side(pred, *left, *right, applied) {
            (None, l, r) => Plan::CrowdJoin {
                left: Box::new(l),
                right: Box::new(r),
                left_expr,
                right_expr,
                redundancy,
                batch,
                outer,
            },
            (Some(pred), l, r) => wrap(
                pred,
                Plan::CrowdJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                    left_expr,
                    right_expr,
                    redundancy,
                    batch,
                    outer,
                },
            ),
        },
        other => wrap(pred, other),
    }
}

fn wrap(pred: BoundPredicate, input: Plan) -> Plan {
    Plan::Filter {
        input: Box::new(input),
        predicates: vec![pred],
    }
}

/// Sinks `pred` into whichever join input owns all its columns; when it
/// straddles both sides (or reads no column) the predicate comes back as
/// `Some` for the caller to keep above the join.
fn sink_into_join_side(
    pred: BoundPredicate,
    left: Plan,
    right: Plan,
    applied: &mut Applied,
) -> (Option<BoundPredicate>, Plan, Plan) {
    let lw = left.width();
    let slots = pred.slots();
    if !slots.is_empty() && slots.iter().all(|&s| s < lw) {
        applied.insert("predicate-pushdown");
        (None, sink(pred, left, applied), right)
    } else if !slots.is_empty() && slots.iter().all(|&s| s >= lw) {
        let mut p = pred;
        p.shift_down(lw);
        applied.insert("predicate-pushdown");
        (None, left, sink(p, right, applied))
    } else {
        (Some(pred), left, right)
    }
}

/// fill-pushdown: split a fill sitting on a cross join into per-side
/// fills, so join formation rules see bare joins.
fn push_fill_into_join(plan: Plan, applied: &mut Applied) -> Plan {
    match plan {
        Plan::CrowdFill {
            input,
            slots,
            redundancy,
            batch,
        } if matches!(*input, Plan::CrossJoin { .. }) => {
            let Plan::CrossJoin { left, right } = *input else {
                unreachable!("guarded by matches! above");
            };
            let lw = left.width();
            let mut ls = Vec::new();
            let mut rs = Vec::new();
            for mut s in slots {
                if s.slot < lw {
                    ls.push(s);
                } else {
                    s.slot -= lw;
                    rs.push(s);
                }
            }
            applied.insert("fill-pushdown");
            let mut l = push_fill_into_join(*left, applied);
            let mut r = push_fill_into_join(*right, applied);
            if !ls.is_empty() {
                l = Plan::CrowdFill {
                    input: Box::new(l),
                    slots: ls,
                    redundancy,
                    batch,
                };
            }
            if !rs.is_empty() {
                r = Plan::CrowdFill {
                    input: Box::new(r),
                    slots: rs,
                    redundancy,
                    batch,
                };
            }
            Plan::CrossJoin {
                left: Box::new(l),
                right: Box::new(r),
            }
        }
        other => map_children(other, &mut |c| push_fill_into_join(c, applied)),
    }
}

/// hash-join-promotion: a cross-side machine equality directly above a
/// cross join becomes the join condition of a hash join.
fn promote_hash_join(plan: Plan, applied: &mut Applied) -> Plan {
    if let Plan::Filter { input, predicates } = plan {
        if let Plan::CrossJoin { left, right } = *input {
            let lw = left.width();
            if let [BoundPredicate::Compare {
                left: BoundExpr::Slot(a),
                op: CompareOp::Eq,
                right: BoundExpr::Slot(b),
            }] = predicates.as_slice()
            {
                let (ls, rs) = if a.slot < lw && b.slot >= lw {
                    (a.clone(), b.clone())
                } else if b.slot < lw && a.slot >= lw {
                    (b.clone(), a.clone())
                } else {
                    // Same-side equality: not a join condition.
                    let rebuilt = Plan::CrossJoin { left, right };
                    return map_children(
                        Plan::Filter {
                            input: Box::new(rebuilt),
                            predicates,
                        },
                        &mut |c| promote_hash_join(c, applied),
                    );
                };
                applied.insert("hash-join-promotion");
                return Plan::HashJoin {
                    left: Box::new(promote_hash_join(*left, applied)),
                    right: Box::new(promote_hash_join(*right, applied)),
                    left_slot: ls,
                    right_slot: rs,
                };
            }
            let rebuilt = Plan::CrossJoin { left, right };
            return map_children(
                Plan::Filter {
                    input: Box::new(rebuilt),
                    predicates,
                },
                &mut |c| promote_hash_join(c, applied),
            );
        }
        return Plan::Filter {
            input: Box::new(promote_hash_join(*input, applied)),
            predicates,
        };
    }
    map_children(plan, &mut |c| promote_hash_join(c, applied))
}

/// crowd-join: `CROWDEQUAL` over a cross join becomes a crowd join.
fn form_crowd_join(plan: Plan, applied: &mut Applied) -> Plan {
    if let Plan::CrowdCompare {
        input,
        predicates,
        redundancy,
    } = plan
    {
        if let Plan::CrossJoin { left, right } = *input {
            let lw = left.width();
            if let [BoundPredicate::CrowdEqual {
                left: le,
                right: re,
            }] = predicates.as_slice()
            {
                let cross_side = match (le.slot(), re.slot()) {
                    (Some(a), Some(b)) => {
                        if a < lw && b >= lw {
                            Some((le.clone(), re.clone()))
                        } else if b < lw && a >= lw {
                            Some((re.clone(), le.clone()))
                        } else {
                            None
                        }
                    }
                    _ => None,
                };
                if let Some((left_expr, right_expr)) = cross_side {
                    applied.insert("crowd-join");
                    return Plan::CrowdJoin {
                        left: Box::new(form_crowd_join(*left, applied)),
                        right: Box::new(form_crowd_join(*right, applied)),
                        left_expr,
                        right_expr,
                        redundancy,
                        batch: 0,
                        outer: Side::Left,
                    };
                }
            }
            let rebuilt = Plan::CrossJoin { left, right };
            return map_children(
                Plan::CrowdCompare {
                    input: Box::new(rebuilt),
                    predicates,
                    redundancy,
                },
                &mut |c| form_crowd_join(c, applied),
            );
        }
        return Plan::CrowdCompare {
            input: Box::new(form_crowd_join(*input, applied)),
            predicates,
            redundancy,
        };
    }
    map_children(plan, &mut |c| form_crowd_join(c, applied))
}

/// crowd-join-reorder: probe from the side predicted to be smaller.
fn reorder_crowd_join(plan: Plan, est: &Estimator<'_>, applied: &mut Applied) -> Plan {
    match plan {
        Plan::CrowdJoin {
            left,
            right,
            left_expr,
            right_expr,
            redundancy,
            batch,
            ..
        } => {
            let outer = if est.rows(&right) < est.rows(&left) {
                applied.insert("crowd-join-reorder");
                Side::Right
            } else {
                Side::Left
            };
            Plan::CrowdJoin {
                left: Box::new(reorder_crowd_join(*left, est, applied)),
                right: Box::new(reorder_crowd_join(*right, est, applied)),
                left_expr,
                right_expr,
                redundancy,
                batch,
                outer,
            }
        }
        other => map_children(other, &mut |c| reorder_crowd_join(c, est, applied)),
    }
}

/// topk-fusion: `LIMIT k` directly above a full crowd sort turns the
/// sort into a top-k tournament.
fn fuse_topk(plan: Plan, applied: &mut Applied) -> Plan {
    match plan {
        Plan::Limit { input, n } => {
            if let Plan::CrowdSort {
                input: sort_input,
                slot,
                top_k: None,
                redundancy,
            } = *input
            {
                applied.insert("topk-fusion");
                Plan::Limit {
                    input: Box::new(Plan::CrowdSort {
                        input: Box::new(fuse_topk(*sort_input, applied)),
                        slot,
                        top_k: Some(n),
                        redundancy,
                    }),
                    n,
                }
            } else {
                Plan::Limit {
                    input: Box::new(fuse_topk(*input, applied)),
                    n,
                }
            }
        }
        other => map_children(other, &mut |c| fuse_topk(c, applied)),
    }
}

/// op-batching: set the batch knob on every fill and crowd join.
fn batch_ops(plan: Plan, batch: usize, applied: &mut Applied) -> Plan {
    match plan {
        Plan::CrowdFill {
            input,
            slots,
            redundancy,
            ..
        } => {
            applied.insert("op-batching");
            Plan::CrowdFill {
                input: Box::new(batch_ops(*input, batch, applied)),
                slots,
                redundancy,
                batch,
            }
        }
        Plan::CrowdJoin {
            left,
            right,
            left_expr,
            right_expr,
            redundancy,
            outer,
            ..
        } => {
            applied.insert("op-batching");
            Plan::CrowdJoin {
                left: Box::new(batch_ops(*left, batch, applied)),
                right: Box::new(batch_ops(*right, batch, applied)),
                left_expr,
                right_expr,
                redundancy,
                batch,
                outer,
            }
        }
        other => map_children(other, &mut |c| batch_ops(c, batch, applied)),
    }
}

/// Rewrites the canonical plan and picks the candidate with the lowest
/// [`CostVector::scalarize`](crate::cost::CostVector::scalarize) score.
/// `batch` > 0 also turns on operator batching.
pub fn optimize(canonical: &Plan, est: &Estimator<'_>, batch: usize) -> Rewritten {
    let mut applied = Applied::new();
    let mut plan = canonical.clone();
    for _ in 0..16 {
        let mut next = prune_fill(plan.clone(), &BTreeSet::new(), &mut applied);
        next = pushdown(next, &mut applied);
        next = push_fill_into_join(next, &mut applied);
        next = promote_hash_join(next, &mut applied);
        next = form_crowd_join(next, &mut applied);
        if next == plan {
            break;
        }
        plan = next;
    }
    plan = reorder_crowd_join(plan, est, &mut applied);

    let mut with_fusion_rules = applied.clone();
    let fused = fuse_topk(plan.clone(), &mut with_fusion_rules);

    let finalize = |p: Plan, mut rules: Applied| {
        let p = if batch > 0 {
            batch_ops(p, batch, &mut rules)
        } else {
            p
        };
        (p, rules)
    };

    // Candidate order is the tie-break: prefer the most-rewritten plan.
    let mut candidates = vec![
        finalize(fused, with_fusion_rules),
        finalize(plan, applied),
        (canonical.clone(), Applied::new()),
    ];
    let mut best = 0;
    let mut best_score = f64::INFINITY;
    for (i, (p, _)) in candidates.iter().enumerate() {
        let score = est.estimate(p).total.scalarize();
        if score < best_score {
            best_score = score;
            best = i;
        }
    }
    let (plan, rules) = candidates.swap_remove(best);
    Rewritten {
        plan,
        rules: rules.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::binder::bind;
    use crate::catalog::Catalog;
    use crate::cost::SelectivityMemory;
    use crate::parser::parse_statement;
    use crate::value::Value;

    fn exec_ddl(c: &mut Catalog, sql: &str) {
        match parse_statement(sql).unwrap() {
            Statement::CreateTable {
                name,
                columns,
                crowd,
            } => c.create_table(&name, &columns, crowd).unwrap(),
            Statement::Insert { table, rows } => c.insert(&table, rows).unwrap(),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        exec_ddl(
            &mut c,
            "CREATE TABLE products (id INT, name TEXT, category CROWD TEXT)",
        );
        exec_ddl(&mut c, "CREATE TABLE brands (bid INT, bname TEXT)");
        let rows: Vec<Vec<Value>> = (0..8)
            .map(|i| vec![Value::Int(i), Value::text(format!("p{i}")), Value::Null])
            .collect();
        c.insert("products", rows).unwrap();
        c.insert(
            "brands",
            (0..3)
                .map(|i| vec![Value::Int(i), Value::text(format!("b{i}"))])
                .collect(),
        )
        .unwrap();
        c
    }

    fn optimize_sql(sql: &str, catalog: &Catalog) -> Rewritten {
        let sel = match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        let bound = bind(&sel, catalog, 3).unwrap();
        let memory = SelectivityMemory::new();
        let est = Estimator::new(catalog, &memory, 0.9);
        optimize(&bound.plan, &est, 0)
    }

    #[test]
    fn optimized_plan_skips_unneeded_fill() {
        let c = catalog();
        let r = optimize_sql("SELECT name FROM products WHERE id >= 2", &c);
        let text = r.plan.to_string();
        assert!(!text.contains("CrowdFill"), "{text}");
        assert!(r.rules.contains(&"lazy-fill"), "{:?}", r.rules);
    }

    #[test]
    fn optimized_plan_orders_machine_before_fill_before_crowd() {
        let c = catalog();
        let r = optimize_sql(
            "SELECT name FROM products WHERE category = 'phone' AND id >= 6",
            &c,
        );
        let text = r.plan.to_string();
        let cat = text.find("MachineFilter [category = 'phone']").unwrap();
        let fill = text.find("CrowdFill [products.category]").unwrap();
        let id = text.find("MachineFilter [id >= 6]").unwrap();
        // Top-down rendering: the crowd-dependent filter prints first,
        // then the fill, then the machine filter that ran first.
        assert!(cat < fill && fill < id, "{text}");
        assert!(r.rules.contains(&"predicate-pushdown"), "{:?}", r.rules);
    }

    #[test]
    fn crowdequal_join_becomes_crowd_join_with_machine_prefilter() {
        let c = catalog();
        let r = optimize_sql(
            "SELECT name, bname FROM products, brands \
             WHERE CROWDEQUAL(name, bname) AND bid >= 1",
            &c,
        );
        let text = r.plan.to_string();
        assert!(
            text.contains("CrowdJoin [CROWDEQUAL(name, bname)]"),
            "{text}"
        );
        assert!(!text.contains("Join (cross)"), "{text}");
        let filt = text.find("MachineFilter [bid >= 1]").unwrap();
        let join = text.find("CrowdJoin").unwrap();
        assert!(join < filt, "pre-filter sits under the join:\n{text}");
        assert!(r.rules.contains(&"crowd-join"), "{:?}", r.rules);
        // Filtered brands (~1 row estimated) is smaller than the 8
        // products, so the join probes from the right side.
        assert!(r.rules.contains(&"crowd-join-reorder"), "{:?}", r.rules);
        assert!(text.contains("(outer=right)"), "{text}");
    }

    #[test]
    fn machine_equality_promotes_to_hash_join() {
        let c = catalog();
        let r = optimize_sql(
            "SELECT name FROM products, brands WHERE id = bid AND bid >= 1",
            &c,
        );
        let text = r.plan.to_string();
        assert!(text.contains("HashJoin [id = bid]"), "{text}");
        assert!(!text.contains("Join (cross)"), "{text}");
        assert!(r.rules.contains(&"hash-join-promotion"), "{:?}", r.rules);
    }

    #[test]
    fn same_table_equality_is_not_a_join_condition() {
        let c = catalog();
        let r = optimize_sql("SELECT name FROM products, brands WHERE bname = bname", &c);
        let text = r.plan.to_string();
        assert!(!text.contains("HashJoin"), "{text}");
        assert!(text.contains("Join (cross)"), "{text}");
    }

    #[test]
    fn topk_fusion_depends_on_cardinality() {
        let c = catalog();
        // 8 products: a top-2 tournament is predicted cheaper than the
        // 28-pair full sort.
        let r = optimize_sql(
            "SELECT name FROM products ORDER BY CROWDORDER(name) LIMIT 2",
            &c,
        );
        let text = r.plan.to_string();
        assert!(text.contains("CrowdSort name (top-2 tournament)"), "{text}");
        assert!(r.rules.contains(&"topk-fusion"), "{:?}", r.rules);

        // Without a limit the sort stays a full pairwise tournament.
        let r = optimize_sql("SELECT name FROM products ORDER BY CROWDORDER(name)", &c);
        assert!(r.plan.to_string().contains("(full pairwise)"));
    }

    #[test]
    fn batching_sets_knobs_on_fill_nodes() {
        let c = catalog();
        let sel = match parse_statement("SELECT category FROM products").unwrap() {
            Statement::Select(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        let bound = bind(&sel, &c, 3).unwrap();
        let memory = SelectivityMemory::new();
        let est = Estimator::new(&c, &memory, 0.9);
        let r = optimize(&bound.plan, &est, 4);
        assert!(r.plan.to_string().contains("(batch=4)"), "{}", r.plan);
        assert!(r.rules.contains(&"op-batching"), "{:?}", r.rules);
    }

    #[test]
    fn rewrites_are_deterministic_and_never_predicted_worse() {
        let c = catalog();
        let memory = SelectivityMemory::new();
        let est = Estimator::new(&c, &memory, 0.9);
        for sql in [
            "SELECT name FROM products WHERE id >= 2",
            "SELECT * FROM products WHERE category = 'x'",
            "SELECT name, bname FROM products, brands WHERE CROWDEQUAL(category, bname)",
            "SELECT COUNT(*) FROM products",
            "SELECT name FROM products ORDER BY CROWDORDER(category) LIMIT 2",
        ] {
            let sel = match parse_statement(sql).unwrap() {
                Statement::Select(s) => s,
                other => panic!("unexpected {other:?}"),
            };
            let bound = bind(&sel, &c, 3).unwrap();
            let a = optimize(&bound.plan, &est, 0);
            let b = optimize(&bound.plan, &est, 0);
            assert_eq!(a, b, "optimizer must be deterministic for {sql}");
            let naive = est.estimate(&bound.plan).total;
            let opt = est.estimate(&a.plan).total;
            assert!(
                opt.spend <= naive.spend + 1e-9,
                "{sql}: predicted {} > naive {}",
                opt.spend,
                naive.spend
            );
        }
    }
}
