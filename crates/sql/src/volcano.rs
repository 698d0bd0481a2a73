//! Volcano-style pull executor for CrowdSQL physical plans.
//!
//! [`build`] lowers a [`Plan`](crate::ir::Plan) tree into a tree of
//! [`Operator`]s, each exposing the classic iterator interface: `next()`
//! yields one row at a time, pulled from the root. Compared to the old
//! materialize-everything interpreter this gives
//!
//! * **early exit** — `Limit` stops pulling from its child, so upstream
//!   machine work ends as soon as enough rows arrived;
//! * **per-operator accounting** — every crowd operator measures its own
//!   question/row deltas, which the session layer emits as `sql.node`
//!   observability events and feeds back into the cost model's
//!   selectivity memory;
//! * **round/spend metering** — all crowd traffic flows through a
//!   [`RoundOracle`] wrapper that counts platform round-trips and actual
//!   money spent, the two quantities the optimizer predicts.
//!
//! **Rows.** The operator tree borrows the plan and the catalog (`'c`):
//! the session holds the catalog's read lock until the root is drained.
//! A scan reads base rows where they lie and copies a row only when it
//! emits it, and a `MachineFilter` planned directly on a scan is folded
//! into the scan, so rows the filter drops are never copied. The folded
//! filter and [`FilterOp`] count `(passed, seen)` per predicate through
//! one function, one row at a time, so a `Limit` that stops pulling early
//! feeds the cost model the counts of the rows actually tested. Operators
//! that must see their whole input (fill, joins, sorts) buffer it once and
//! hand their output rows on by move, not by a clone per pull.
//!
//! Crowd purchases are *deduplicated by base cell / value pair* inside one
//! query: a fill above a join asks once per underlying cell (not once per
//! joined row), and CROWDEQUAL verdicts are cached per unordered value
//! pair exactly like the old executor.
//!
//! The executor owns no voting logic: fill answers settle through
//! [`crowdkit_ops::reconcile::plurality`] (only the INT/TEXT conversion
//! of the winner lives here), CROWDEQUAL verdicts through
//! [`crowdkit_ops::reconcile::yes_majority`], and every short delivery
//! through [`AskOutcome::check`]. Fill and join buy `batch` requests per
//! platform round-trip; `batch = 0` is the same loop with one request per
//! round-trip.
//!
//! Determinism contract: operators pull sequentially, all fold iteration
//! uses key-ordered maps, and crowd asks are issued in a fixed
//! plan-defined order — results are byte-identical at any thread count.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};

use crowdkit_obs::{prov, Recorder};

use crowdkit_core::answer::Answer;
use crowdkit_core::ask::{AskOutcome, AskRequest};
use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::ids::IdGen;
use crowdkit_core::task::Task;
use crowdkit_core::traits::CrowdOracle;
use crowdkit_ops::reconcile::{plurality, yes_majority};
use crowdkit_ops::sort::rankers::copeland;
use crowdkit_ops::sort::tournament::crowd_top_k;
use crowdkit_ops::sort::{collect_comparisons, order_by_scores, ComparisonGraph};

use crate::ast::CompareOp;
use crate::catalog::{Catalog, ColumnType};
use crate::exec::TaskFactory;
use crate::ir::{BoundExpr, BoundPredicate, FillSlot, Plan, Side};
use crate::value::Value;

const NO_ORACLE_FILL: &str = "plan requires the crowd (CrowdFill) but no oracle was provided";
const NO_ORACLE_FILTER: &str = "plan requires the crowd (CrowdFilter) but no oracle was provided";
const NO_ORACLE_JOIN: &str = "plan requires the crowd (CrowdJoin) but no oracle was provided";
const NO_ORACLE_SORT: &str = "plan requires the crowd (CrowdSort) but no oracle was provided";

/// One in-flight row: its values plus provenance (base table, base row
/// index) for crowd-fill write-back. The table names borrow the plan.
#[derive(Debug, Clone)]
pub(crate) struct ExecRow<'c> {
    /// Column values in the operator's output layout.
    pub values: Vec<Value>,
    /// `(table, base_row_index)` per base table contributing to this row.
    pub prov: Vec<(&'c str, usize)>,
}

/// Runtime statistics for one crowd operator, collected bottom-up after
/// the root is drained (emitted as `sql.node` events by the session).
#[derive(Debug, Clone)]
pub(crate) struct NodeRuntime {
    /// Operator name as reported in observability ("CrowdFill", ...).
    pub node: &'static str,
    /// Rows pulled from the child(ren). Joins report candidate pairs.
    pub rows_in: u64,
    /// Rows emitted.
    pub rows_out: u64,
    /// Crowd answers purchased by this operator alone.
    pub questions: u64,
    /// Money spent by this operator alone (sum of per-answer costs).
    pub spend: f64,
}

/// A [`CrowdOracle`] wrapper that meters platform round-trips and actual
/// spend — the two quantities the cost model predicts. Each `ask*` call
/// counts as one round (a batch is one round-trip: that is its point);
/// spend is the sum of [`Answer::cost`] over delivered answers.
pub(crate) struct RoundOracle<'a> {
    inner: &'a dyn CrowdOracle,
    rounds: Cell<u64>,
    spend: Cell<f64>,
    /// Per-task / per-worker spend attribution, kept only while the scope
    /// captures provenance detail (see [`crowdkit_obs::Scope::capture_detail`]).
    ledger: RefCell<Option<prov::SpendLedger>>,
}

impl<'a> RoundOracle<'a> {
    /// Wraps `inner`, starting both meters at zero; `capture_detail`
    /// also keeps a spend ledger.
    pub fn new(inner: &'a dyn CrowdOracle, capture_detail: bool) -> Self {
        Self {
            inner,
            rounds: Cell::new(0),
            spend: Cell::new(0.0),
            ledger: RefCell::new(capture_detail.then(prov::SpendLedger::new)),
        }
    }

    /// Platform round-trips so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.get()
    }

    /// Money spent so far (sum of per-answer costs).
    pub fn spend(&self) -> f64 {
        self.spend.get()
    }

    /// Flushes the task/worker spend ledger as `prov.spend` events into
    /// `rec` (no-op when no provenance detail was being captured).
    pub fn emit_ledger(&self, rec: &dyn Recorder) {
        if let Some(ledger) = &*self.ledger.borrow() {
            ledger.emit(rec);
        }
    }

    fn book(&self, answers: &[Answer]) {
        let c: f64 = answers.iter().map(|a| a.cost).sum();
        self.spend.set(self.spend.get() + c);
        if let Some(ledger) = &mut *self.ledger.borrow_mut() {
            for a in answers {
                ledger.note(a.task.0, a.worker.0, a.cost);
            }
        }
    }

    fn note(&self, answers: &[Answer]) {
        self.rounds.set(self.rounds.get() + 1);
        self.book(answers);
    }
}

impl CrowdOracle for RoundOracle<'_> {
    // Every method delegates to the wrapped oracle (never to the trait
    // defaults, which would bypass the platform's own batching).
    fn ask_one(&self, task: &Task) -> Result<Answer> {
        let a = self.inner.ask_one(task)?;
        self.note(std::slice::from_ref(&a));
        Ok(a)
    }

    fn ask(&self, req: &AskRequest<'_>) -> Result<AskOutcome> {
        let out = self.inner.ask(req)?;
        self.note(&out.answers);
        Ok(out)
    }

    fn ask_batch(&self, reqs: &[AskRequest<'_>]) -> Result<Vec<AskOutcome>> {
        let outs = self.inner.ask_batch(reqs)?;
        self.rounds.set(self.rounds.get() + 1);
        for o in &outs {
            self.book(&o.answers);
        }
        Ok(outs)
    }

    fn ask_many(&self, task: &Task, k: usize) -> Result<Vec<Answer>> {
        let answers = self.inner.ask_many(task, k)?;
        self.note(&answers);
        Ok(answers)
    }

    fn remaining_budget(&self) -> Option<f64> {
        self.inner.remaining_budget()
    }

    fn answers_delivered(&self) -> u64 {
        self.inner.answers_delivered()
    }
}

/// Shared execution context threaded through every operator.
pub(crate) struct ExecCx<'a> {
    /// Metered oracle, absent for machine-only execution.
    pub oracle: Option<&'a RoundOracle<'a>>,
    /// Task phrasing.
    pub factory: &'a mut (dyn TaskFactory + 'a),
    /// Task id generator (fresh per query).
    pub ids: IdGen,
    /// CROWDEQUAL verdict cache over unordered pairs of raw renderings:
    /// `equal_cache[lo][hi]`, where `lo` is the smaller, so a lookup
    /// borrows both renderings instead of building a key.
    equal_cache: HashMap<String, HashMap<String, bool>>,
    /// Fill results keyed by base cell `(table, row, column)` — a fill
    /// above a join buys each underlying cell once.
    fill_results: HashMap<(String, usize, usize), Option<Value>>,
    /// `(table, row, column, value)` cells to persist after execution.
    pub writebacks: Vec<(String, usize, usize, Value)>,
    /// Cells successfully reconciled and filled.
    pub cells_filled: u64,
    /// CROWDEQUAL verdicts purchased (cache misses).
    pub equal_checks: u64,
    /// Pairwise comparisons purchased by crowd sorts.
    pub comparisons: u64,
    /// Per-crowd-operator runtime stats, pushed bottom-up in `finish`.
    pub node_stats: Vec<NodeRuntime>,
    /// `(predicate key, rows passed, rows seen)` selectivity observations.
    pub observations: Vec<(String, u64, u64)>,
}

impl<'a> ExecCx<'a> {
    fn new(oracle: Option<&'a RoundOracle<'a>>, factory: &'a mut (dyn TaskFactory + 'a)) -> Self {
        Self {
            oracle,
            factory,
            ids: IdGen::new(),
            equal_cache: HashMap::new(),
            fill_results: HashMap::new(),
            writebacks: Vec::new(),
            cells_filled: 0,
            equal_checks: 0,
            comparisons: 0,
            node_stats: Vec::new(),
            observations: Vec::new(),
        }
    }

    /// Answers delivered by the underlying platform so far (0 without an
    /// oracle) — operators diff this around their own crowd calls.
    fn delivered(&self) -> u64 {
        self.oracle.map_or(0, |o| o.answers_delivered())
    }

    /// Money spent through the metered oracle so far (0.0 without an
    /// oracle) — operators diff this around their own crowd calls.
    fn spent(&self) -> f64 {
        self.oracle.map_or(0.0, |o| o.spend())
    }

    fn require_oracle(&self, msg: &'static str) -> Result<&'a RoundOracle<'a>> {
        self.oracle.ok_or(CrowdError::Unsupported(msg))
    }

    /// Cached CROWDEQUAL verdict for a pair of raw renderings, in either
    /// order, if one was purchased.
    fn cached_equal(&self, a: &str, b: &str) -> Option<bool> {
        let (lo, hi) = ordered(a, b);
        self.equal_cache.get(lo)?.get(hi).copied()
    }

    /// Buys (or reuses) one CROWDEQUAL verdict.
    fn crowd_equal(&mut self, left: &Value, right: &Value, votes: u32) -> Result<bool> {
        let (a, b) = (left.display_raw(), right.display_raw());
        if let Some(v) = self.cached_equal(&a, &b) {
            return Ok(v);
        }
        let oracle = self.require_oracle(NO_ORACLE_FILTER)?;
        let task = self.factory.equal_task(self.ids.next_task(), left, right);
        let out = oracle.ask(&AskRequest::new(&task).with_redundancy(votes.max(1) as usize))?;
        self.settle_equal(a, b, &out)
    }

    /// Records one purchased CROWDEQUAL verdict on the raw renderings `a`
    /// and `b`: the yes/no majority of its answers (ties are "no").
    fn settle_equal(&mut self, a: String, b: String, out: &AskOutcome) -> Result<bool> {
        out.check()?;
        let verdict = yes_majority(&out.answers);
        let (lo, hi) = ordered(a, b);
        self.equal_cache.entry(lo).or_default().insert(hi, verdict);
        self.equal_checks += 1;
        Ok(verdict)
    }
}

/// A CROWDEQUAL pair's two renderings in cache order, the smaller first.
fn ordered<S: PartialOrd>(a: S, b: S) -> (S, S) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn eval<'v>(e: &'v BoundExpr, values: &'v [Value]) -> &'v Value {
    match e {
        BoundExpr::Slot(s) => &values[s.slot],
        BoundExpr::Literal(v) => v,
    }
}

/// SQL WHERE semantics: NULL comparisons drop the row.
fn eval_machine_predicate(p: &BoundPredicate, values: &[Value]) -> Result<bool> {
    let BoundPredicate::Compare { left, op, right } = p else {
        return Err(CrowdError::Execution(
            "crowd predicate in MachineFilter".into(),
        ));
    };
    let lv = eval(left, values);
    let rv = eval(right, values);
    Ok(match op {
        CompareOp::Eq => lv.sql_eq(rv).unwrap_or(false),
        CompareOp::Ne => lv.sql_eq(rv).map(|b| !b).unwrap_or(false),
        CompareOp::Lt => lv.compare(rv).is_some_and(|o| o.is_lt()),
        CompareOp::Le => lv.compare(rv).is_some_and(|o| o.is_le()),
        CompareOp::Gt => lv.compare(rv).is_some_and(|o| o.is_gt()),
        CompareOp::Ge => lv.compare(rv).is_some_and(|o| o.is_ge()),
    })
}

/// The conjunction of one `MachineFilter` and its selectivity counts.
/// [`FilterOp`] and a scan with a folded filter both test rows through
/// [`MachineTest::pass`], so a row counts the same wherever it is tested.
struct MachineTest<'c> {
    predicates: &'c [BoundPredicate],
    /// `(passed, seen)` per predicate, flushed as selectivity feedback.
    counts: Vec<(u64, u64)>,
}

impl<'c> MachineTest<'c> {
    fn new(predicates: &'c [BoundPredicate]) -> Self {
        Self {
            predicates,
            counts: vec![(0, 0); predicates.len()],
        }
    }

    /// Tests one row against the predicates in order, stopping at the
    /// first that fails. Each predicate tested counts the row as seen, and
    /// as passed when it holds; rows a `Limit` never pulls are not counted.
    fn pass(&mut self, values: &[Value]) -> Result<bool> {
        for (p, (passed, seen)) in self.predicates.iter().zip(&mut self.counts) {
            *seen += 1;
            if !eval_machine_predicate(p, values)? {
                return Ok(false);
            }
            *passed += 1;
        }
        Ok(true)
    }

    /// Flushes one `(predicate, passed, seen)` observation per predicate.
    fn report(&self, cx: &mut ExecCx<'_>) {
        for (p, &(passed, seen)) in self.predicates.iter().zip(&self.counts) {
            cx.observations.push((p.to_string(), passed, seen));
        }
    }
}

/// The Volcano iterator interface. `'c` is the borrow of the plan and the
/// catalog that the operator tree reads for the whole query.
pub(crate) trait Operator<'c> {
    /// Pulls the next row, or `None` at end of stream.
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow<'c>>>;

    /// Called once after the root is drained (or abandoned by a limit):
    /// recurses into children first, then flushes this operator's
    /// runtime stats and selectivity observations into the context, so
    /// `cx.node_stats` ends up in deterministic bottom-up plan order.
    fn finish(&mut self, cx: &mut ExecCx<'_>);
}

/// A boxed operator over the borrow `'c`.
type BoxedOp<'c> = Box<dyn Operator<'c> + 'c>;

/// Lowers a physical plan into an operator tree that borrows the plan and
/// the catalog; the caller holds the catalog's read lock until the tree
/// is drained. Scans read rows where they lie, and a `MachineFilter`
/// planned directly on a scan is folded into it, so a scan copies only
/// the rows it keeps. Plans that need the crowd fail here when no oracle
/// was provided.
pub(crate) fn build<'c>(
    plan: &'c Plan,
    catalog: &'c Catalog,
    has_oracle: bool,
) -> Result<BoxedOp<'c>> {
    Ok(match plan {
        Plan::Scan { table, .. } => Box::new(ScanOp::new(table, catalog.rows(table)?, &[])),
        Plan::CrossJoin { left, right } => Box::new(CrossJoinOp {
            left: build(left, catalog, has_oracle)?,
            right: build(right, catalog, has_oracle)?,
            right_buf: Vec::new(),
            built: false,
            current: None,
            right_pos: 0,
        }),
        Plan::HashJoin {
            left,
            right,
            left_slot,
            right_slot,
        } => {
            let lw = left.width();
            Box::new(HashJoinOp {
                left: build(left, catalog, has_oracle)?,
                right: build(right, catalog, has_oracle)?,
                li: left_slot.slot,
                ri: right_slot.slot - lw,
                table: HashMap::new(),
                built: false,
                queue: Vec::new().into_iter(),
            })
        }
        Plan::Filter { input, predicates } => match &**input {
            Plan::Scan { table, .. } => {
                Box::new(ScanOp::new(table, catalog.rows(table)?, predicates))
            }
            _ => Box::new(FilterOp {
                child: build(input, catalog, has_oracle)?,
                test: MachineTest::new(predicates),
            }),
        },
        Plan::CrowdFill {
            input,
            slots,
            redundancy,
            batch,
        } => {
            if !has_oracle {
                return Err(CrowdError::Unsupported(NO_ORACLE_FILL));
            }
            Box::new(CrowdFillOp {
                child: build(input, catalog, has_oracle)?,
                slots,
                redundancy: *redundancy,
                batch: *batch,
                out: Vec::new().into_iter(),
                rows: 0,
                built: false,
                questions: 0,
                spend: 0.0,
            })
        }
        Plan::CrowdCompare {
            input,
            predicates,
            redundancy,
        } => {
            if !has_oracle {
                return Err(CrowdError::Unsupported(NO_ORACLE_FILTER));
            }
            Box::new(CrowdCompareOp {
                child: build(input, catalog, has_oracle)?,
                predicates,
                redundancy: *redundancy,
                counts: vec![(0, 0); predicates.len()],
                rows_in: 0,
                rows_out: 0,
                questions: 0,
                spend: 0.0,
            })
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
            if !has_oracle {
                return Err(CrowdError::Unsupported(NO_ORACLE_JOIN));
            }
            Box::new(CrowdJoinOp {
                left: build(left, catalog, has_oracle)?,
                right: build(right, catalog, has_oracle)?,
                left_expr,
                right_expr,
                left_width: left.width(),
                redundancy: *redundancy,
                batch: *batch,
                outer: *outer,
                out: Vec::new().into_iter(),
                built: false,
                rows_in: 0,
                matched: 0,
                pairs: 0,
                questions: 0,
                spend: 0.0,
            })
        }
        Plan::Sort { input, slot, asc } => Box::new(SortOp {
            child: build(input, catalog, has_oracle)?,
            slot: slot.slot,
            asc: *asc,
            out: Vec::new().into_iter(),
            built: false,
        }),
        Plan::CrowdSort {
            input,
            slot,
            top_k,
            redundancy,
        } => Box::new(CrowdSortOp {
            child: build(input, catalog, has_oracle)?,
            slot: slot.slot,
            top_k: *top_k,
            redundancy: *redundancy,
            out: Vec::new().into_iter(),
            built: false,
            rows_in: 0,
            rows_out: 0,
            questions: 0,
            spend: 0.0,
            worked: false,
        }),
        Plan::Limit { input, n } => Box::new(LimitOp {
            child: build(input, catalog, has_oracle)?,
            remaining: *n,
        }),
        Plan::Project { input, slots } => Box::new(ProjectOp {
            child: build(input, catalog, has_oracle)?,
            indices: slots.iter().map(|s| s.slot).collect(),
        }),
        Plan::CountStar { input } => Box::new(CountStarOp {
            child: build(input, catalog, has_oracle)?,
            emitted: false,
        }),
    })
}

/// Runs `plan` to completion, returning the result rows plus everything
/// the session layer needs for stats, write-back and cost feedback.
pub(crate) struct ExecOutput {
    /// Result rows' values, in plan order.
    pub rows: Vec<Vec<Value>>,
    /// Cells to persist back into the catalog.
    pub writebacks: Vec<(String, usize, usize, Value)>,
    /// Cells successfully filled.
    pub cells_filled: u64,
    /// CROWDEQUAL verdicts purchased.
    pub equal_checks: u64,
    /// Pairwise sort comparisons purchased.
    pub comparisons: u64,
    /// Per-crowd-operator stats, bottom-up.
    pub node_stats: Vec<NodeRuntime>,
    /// Predicate selectivity observations for the cost model.
    pub observations: Vec<(String, u64, u64)>,
}

pub(crate) fn execute(
    plan: &Plan,
    catalog: &Catalog,
    oracle: Option<&RoundOracle<'_>>,
    factory: &mut dyn TaskFactory,
) -> Result<ExecOutput> {
    let mut root = build(plan, catalog, oracle.is_some())?;
    let mut cx = ExecCx::new(oracle, factory);
    let mut rows = Vec::new();
    while let Some(r) = root.next(&mut cx)? {
        rows.push(r.values);
    }
    root.finish(&mut cx);
    Ok(ExecOutput {
        rows,
        writebacks: cx.writebacks,
        cells_filled: cx.cells_filled,
        equal_checks: cx.equal_checks,
        comparisons: cx.comparisons,
        node_stats: cx.node_stats,
        observations: cx.observations,
    })
}

// ---------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------

/// Rows an operator materialized, handed out by move.
type Buffered<'c> = std::vec::IntoIter<ExecRow<'c>>;

/// Reads a base table's rows where they lie in the catalog. A machine
/// filter folded into the scan tests each row in place, and only the rows
/// that pass are copied out; a bare scan tests no predicates.
struct ScanOp<'c> {
    table: &'c str,
    rows: std::iter::Enumerate<std::slice::Iter<'c, Vec<Value>>>,
    filter: MachineTest<'c>,
}

impl<'c> ScanOp<'c> {
    fn new(table: &'c str, rows: &'c [Vec<Value>], predicates: &'c [BoundPredicate]) -> Self {
        Self {
            table,
            rows: rows.iter().enumerate(),
            filter: MachineTest::new(predicates),
        }
    }
}

impl<'c> Operator<'c> for ScanOp<'c> {
    fn next(&mut self, _cx: &mut ExecCx<'_>) -> Result<Option<ExecRow<'c>>> {
        for (i, values) in self.rows.by_ref() {
            if self.filter.pass(values)? {
                return Ok(Some(ExecRow {
                    values: values.clone(),
                    prov: vec![(self.table, i)],
                }));
            }
        }
        Ok(None)
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.filter.report(cx);
    }
}

/// Combines a left and right row (values and provenance concatenated).
fn combine<'c>(a: &ExecRow<'c>, b: &ExecRow<'c>) -> ExecRow<'c> {
    let mut values = a.values.clone();
    values.extend(b.values.iter().cloned());
    let mut prov = a.prov.clone();
    prov.extend(b.prov.iter().copied());
    ExecRow { values, prov }
}

struct CrossJoinOp<'c> {
    left: BoxedOp<'c>,
    right: BoxedOp<'c>,
    right_buf: Vec<ExecRow<'c>>,
    built: bool,
    current: Option<ExecRow<'c>>,
    right_pos: usize,
}

impl<'c> Operator<'c> for CrossJoinOp<'c> {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow<'c>>> {
        if !self.built {
            while let Some(r) = self.right.next(cx)? {
                self.right_buf.push(r);
            }
            self.built = true;
        }
        loop {
            if self.current.is_none() || self.right_pos >= self.right_buf.len() {
                self.current = self.left.next(cx)?;
                self.right_pos = 0;
                if self.current.is_none() {
                    return Ok(None);
                }
            }
            if let (Some(a), true) = (&self.current, self.right_pos < self.right_buf.len()) {
                let b = &self.right_buf[self.right_pos];
                self.right_pos += 1;
                return Ok(Some(combine(a, b)));
            }
            // Right side is empty: no output at all.
            if self.right_buf.is_empty() {
                self.current = None;
                return Ok(None);
            }
        }
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.left.finish(cx);
        self.right.finish(cx);
    }
}

struct HashJoinOp<'c> {
    left: BoxedOp<'c>,
    right: BoxedOp<'c>,
    /// Probe slot in the left row.
    li: usize,
    /// Build slot in the right row (already rebased below the join).
    ri: usize,
    table: HashMap<Value, Vec<ExecRow<'c>>>,
    built: bool,
    /// Joined rows of the current probe row.
    queue: Buffered<'c>,
}

impl<'c> Operator<'c> for HashJoinOp<'c> {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow<'c>>> {
        if !self.built {
            // Build side: the right input, keyed by join value. Hash
            // order is safe: the table is only probed by key and output
            // order follows the probe side. NULL keys never match.
            while let Some(b) = self.right.next(cx)? {
                if !b.values[self.ri].is_null() {
                    self.table
                        .entry(b.values[self.ri].clone())
                        .or_default()
                        .push(b);
                }
            }
            self.built = true;
        }
        loop {
            if let Some(r) = self.queue.next() {
                return Ok(Some(r));
            }
            let Some(a) = self.left.next(cx)? else {
                return Ok(None);
            };
            if a.values[self.li].is_null() {
                continue; // NULL keys never match
            }
            if let Some(matches) = self.table.get(&a.values[self.li]) {
                let joined: Vec<ExecRow<'c>> = matches.iter().map(|b| combine(&a, b)).collect();
                self.queue = joined.into_iter();
            }
        }
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.left.finish(cx);
        self.right.finish(cx);
    }
}

/// A machine filter above anything but a bare scan (a filter directly on
/// a scan is folded into the [`ScanOp`]).
struct FilterOp<'c> {
    child: BoxedOp<'c>,
    test: MachineTest<'c>,
}

impl<'c> Operator<'c> for FilterOp<'c> {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow<'c>>> {
        while let Some(row) = self.child.next(cx)? {
            if self.test.pass(&row.values)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.child.finish(cx);
        self.test.report(cx);
    }
}

struct CrowdFillOp<'c> {
    child: BoxedOp<'c>,
    slots: &'c [FillSlot],
    redundancy: u32,
    batch: usize,
    out: Buffered<'c>,
    /// Rows buffered (and passed on).
    rows: u64,
    built: bool,
    questions: u64,
    spend: f64,
}

/// One fill purchase order: base cell key, the task to ask, target type.
struct PendingFill {
    key: (String, usize, usize),
    task: Task,
    ty: ColumnType,
}

impl CrowdFillOp<'_> {
    fn fill_all(&mut self, cx: &mut ExecCx<'_>, rows: &mut [ExecRow<'_>]) -> Result<()> {
        let oracle = cx.require_oracle(NO_ORACLE_FILL)?;
        let q0 = cx.delivered();
        let s0 = cx.spent();
        // Collect one purchase per still-unpriced base cell, in
        // column-major then row order (the old executor's ask order).
        let mut pending: Vec<PendingFill> = Vec::new();
        let mut queued: HashSet<(String, usize, usize)> = HashSet::new();
        for fs in self.slots {
            for row in rows.iter() {
                if !row.values[fs.slot].is_null() {
                    continue;
                }
                let Some(&(_, base_row)) = row.prov.iter().find(|(t, _)| *t == fs.table) else {
                    continue;
                };
                let key = (fs.table.clone(), base_row, fs.base_index);
                if cx.fill_results.contains_key(&key) || queued.contains(&key) {
                    continue;
                }
                let task =
                    cx.factory
                        .fill_task(cx.ids.next_task(), &fs.table, &row.values, &fs.column);
                queued.insert(key.clone());
                pending.push(PendingFill {
                    key,
                    task,
                    ty: fs.ty,
                });
            }
        }
        // `batch` cells per round-trip; 0 means one cell per round-trip.
        let votes = self.redundancy.max(1) as usize;
        for chunk in pending.chunks(self.batch.max(1)) {
            let reqs: Vec<AskRequest<'_>> = chunk
                .iter()
                .map(|p| AskRequest::new(&p.task).with_redundancy(votes))
                .collect();
            let outs = oracle.ask_batch(&reqs)?;
            for (p, out) in chunk.iter().zip(&outs) {
                settle_fill(cx, p, out)?;
            }
        }
        // Apply reconciled values to every buffered row copy.
        for fs in self.slots {
            for row in rows.iter_mut() {
                if !row.values[fs.slot].is_null() {
                    continue;
                }
                let Some(&(_, base_row)) = row.prov.iter().find(|(t, _)| *t == fs.table) else {
                    continue;
                };
                let key = (fs.table.clone(), base_row, fs.base_index);
                if let Some(Some(v)) = cx.fill_results.get(&key) {
                    row.values[fs.slot] = v.clone();
                }
            }
        }
        self.questions = cx.delivered() - q0;
        self.spend = cx.spent() - s0;
        Ok(())
    }
}

/// The cell value a fill's answers settle on: the plurality winner's
/// surface form in the column's type. A tie, no usable answer or an
/// unparsable INT leaves the cell NULL (`None`).
fn fill_value(answers: &[Answer], ty: ColumnType) -> Option<Value> {
    let winner = plurality(answers)?.surface;
    match ty {
        ColumnType::Int => winner.parse::<i64>().ok().map(Value::Int),
        ColumnType::Text => Some(Value::Text(winner)),
    }
}

/// Records one settled fill purchase in the context.
fn settle_fill(cx: &mut ExecCx<'_>, p: &PendingFill, out: &AskOutcome) -> Result<()> {
    out.check()?;
    let value = fill_value(&out.answers, p.ty);
    if let Some(v) = &value {
        cx.writebacks
            .push((p.key.0.clone(), p.key.1, p.key.2, v.clone()));
        cx.cells_filled += 1;
    }
    cx.fill_results.insert(p.key.clone(), value);
    Ok(())
}

impl<'c> Operator<'c> for CrowdFillOp<'c> {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow<'c>>> {
        if !self.built {
            let mut rows = Vec::new();
            while let Some(r) = self.child.next(cx)? {
                rows.push(r);
            }
            self.built = true;
            self.rows = rows.len() as u64;
            self.fill_all(cx, &mut rows)?;
            self.out = rows.into_iter();
        }
        Ok(self.out.next())
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.child.finish(cx);
        cx.node_stats.push(NodeRuntime {
            node: "CrowdFill",
            rows_in: self.rows,
            rows_out: self.rows,
            questions: self.questions,
            spend: self.spend,
        });
    }
}

struct CrowdCompareOp<'c> {
    child: BoxedOp<'c>,
    predicates: &'c [BoundPredicate],
    redundancy: u32,
    counts: Vec<(u64, u64)>,
    rows_in: u64,
    rows_out: u64,
    questions: u64,
    spend: f64,
}

impl<'c> Operator<'c> for CrowdCompareOp<'c> {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow<'c>>> {
        loop {
            let Some(row) = self.child.next(cx)? else {
                return Ok(None);
            };
            self.rows_in += 1;
            let q0 = cx.delivered();
            let s0 = cx.spent();
            let mut pass = true;
            for (i, p) in self.predicates.iter().enumerate() {
                let BoundPredicate::CrowdEqual { left, right } = p else {
                    return Err(CrowdError::Execution(
                        "machine predicate in CrowdFilter".into(),
                    ));
                };
                self.counts[i].1 += 1;
                let lv = eval(left, &row.values);
                let rv = eval(right, &row.values);
                // NULL operands drop the row without asking the crowd.
                if lv.is_null() || rv.is_null() || !cx.crowd_equal(lv, rv, self.redundancy)? {
                    pass = false;
                    break;
                }
                self.counts[i].0 += 1;
            }
            self.questions += cx.delivered() - q0;
            self.spend += cx.spent() - s0;
            if pass {
                self.rows_out += 1;
                return Ok(Some(row));
            }
        }
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.child.finish(cx);
        cx.node_stats.push(NodeRuntime {
            node: "CrowdFilter",
            rows_in: self.rows_in,
            rows_out: self.rows_out,
            questions: self.questions,
            spend: self.spend,
        });
        for (p, &(passed, seen)) in self.predicates.iter().zip(&self.counts) {
            cx.observations.push((p.to_string(), passed, seen));
        }
    }
}

struct CrowdJoinOp<'c> {
    left: BoxedOp<'c>,
    right: BoxedOp<'c>,
    left_expr: &'c BoundExpr,
    right_expr: &'c BoundExpr,
    left_width: usize,
    redundancy: u32,
    batch: usize,
    outer: Side,
    out: Buffered<'c>,
    built: bool,
    rows_in: u64,
    /// Pairs judged equal: the rows emitted.
    matched: u64,
    pairs: u64,
    questions: u64,
    spend: f64,
}

/// A join expression's value on one side's row. Join expressions are
/// written against the joined layout, so right-side slots are rebased by
/// `offset`, the left input's width.
fn side_value<'v>(expr: &'v BoundExpr, row: &'v ExecRow<'_>, offset: usize) -> &'v Value {
    match expr {
        BoundExpr::Slot(s) => &row.values[s.slot - offset],
        BoundExpr::Literal(v) => v,
    }
}

impl<'c> CrowdJoinOp<'c> {
    fn run(&mut self, cx: &mut ExecCx<'_>) -> Result<Vec<ExecRow<'c>>> {
        let mut lrows = Vec::new();
        while let Some(r) = self.left.next(cx)? {
            lrows.push(r);
        }
        let mut rrows = Vec::new();
        while let Some(r) = self.right.next(cx)? {
            rrows.push(r);
        }
        self.rows_in = (lrows.len() * rrows.len()) as u64;
        let lvals: Vec<&Value> = lrows
            .iter()
            .map(|r| side_value(self.left_expr, r, 0))
            .collect();
        let rvals: Vec<&Value> = rrows
            .iter()
            .map(|r| side_value(self.right_expr, r, self.left_width))
            .collect();
        // Each join value's raw rendering, the form the verdict cache is
        // keyed on, made once per row (`None` for NULL, which never joins).
        let render = |vals: &[&Value]| -> Vec<Option<String>> {
            vals.iter()
                .map(|v| (!v.is_null()).then(|| v.display_raw()))
                .collect()
        };
        let (ltext, rtext) = (render(&lvals), render(&rvals));
        let q0 = cx.delivered();
        let s0 = cx.spent();
        // Verdict phase: buy every needed CROWDEQUAL verdict in
        // outer-major order (the `outer` knob controls which side's
        // stripes form the batched round-trips).
        let ((outer_vals, outer_text), (inner_vals, inner_text), outer_is_left) = match self.outer {
            Side::Left => ((&lvals, &ltext), (&rvals, &rtext), true),
            Side::Right => ((&rvals, &rtext), (&lvals, &ltext), false),
        };
        let oracle = cx.require_oracle(NO_ORACLE_JOIN)?;
        let votes = self.redundancy.max(1) as usize;
        for (&ov, ot) in outer_vals.iter().zip(outer_text) {
            let Some(ot) = ot else { continue };
            // One stripe: all still-unjudged pairs for this outer row,
            // asked `batch` verdicts per platform round-trip (0 means one).
            let mut stripe: Vec<((&str, &str), Task)> = Vec::new();
            let mut queued: HashSet<(&str, &str)> = HashSet::new();
            for (&iv, it) in inner_vals.iter().zip(inner_text) {
                let Some(it) = it else { continue };
                let (lv, rv) = if outer_is_left { (ov, iv) } else { (iv, ov) };
                let key = ordered(ot.as_str(), it.as_str());
                if cx.cached_equal(key.0, key.1).is_some() || !queued.insert(key) {
                    continue;
                }
                let task = cx.factory.equal_task(cx.ids.next_task(), lv, rv);
                stripe.push((key, task));
            }
            for chunk in stripe.chunks(self.batch.max(1)) {
                let reqs: Vec<AskRequest<'_>> = chunk
                    .iter()
                    .map(|(_, task)| AskRequest::new(task).with_redundancy(votes))
                    .collect();
                let outs = oracle.ask_batch(&reqs)?;
                for (((a, b), _), out) in chunk.iter().zip(&outs) {
                    cx.settle_equal((*a).to_owned(), (*b).to_owned(), out)?;
                }
            }
        }
        self.questions = cx.delivered() - q0;
        self.spend = cx.spent() - s0;
        // Emit phase: always left-major, so the join's output order is
        // identical to CrowdFilter-over-cross regardless of `outer`.
        let mut out = Vec::new();
        for (a, lt) in lrows.iter().zip(&ltext) {
            let Some(lt) = lt else { continue };
            for (b, rt) in rrows.iter().zip(&rtext) {
                let Some(rt) = rt else { continue };
                self.pairs += 1;
                if cx.cached_equal(lt, rt) == Some(true) {
                    self.matched += 1;
                    out.push(combine(a, b));
                }
            }
        }
        Ok(out)
    }
}

impl<'c> Operator<'c> for CrowdJoinOp<'c> {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow<'c>>> {
        if !self.built {
            self.built = true;
            self.out = self.run(cx)?.into_iter();
        }
        Ok(self.out.next())
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.left.finish(cx);
        self.right.finish(cx);
        cx.node_stats.push(NodeRuntime {
            node: "CrowdJoin",
            rows_in: self.rows_in,
            rows_out: self.matched,
            questions: self.questions,
            spend: self.spend,
        });
        cx.observations.push((
            format!("CROWDEQUAL({}, {})", self.left_expr, self.right_expr),
            self.matched,
            self.pairs,
        ));
    }
}

struct SortOp<'c> {
    child: BoxedOp<'c>,
    slot: usize,
    asc: bool,
    out: Buffered<'c>,
    built: bool,
}

impl<'c> Operator<'c> for SortOp<'c> {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow<'c>>> {
        if !self.built {
            let mut buf = Vec::new();
            while let Some(r) = self.child.next(cx)? {
                buf.push(r);
            }
            let (slot, asc) = (self.slot, self.asc);
            buf.sort_by(|a: &ExecRow<'c>, b: &ExecRow<'c>| {
                use std::cmp::Ordering;
                let (av, bv) = (&a.values[slot], &b.values[slot]);
                // NULLs sort last regardless of direction.
                match (matches!(av, Value::Null), matches!(bv, Value::Null)) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    (false, false) => {
                        let ord = av.compare(bv).unwrap_or(Ordering::Equal);
                        if asc {
                            ord
                        } else {
                            ord.reverse()
                        }
                    }
                }
            });
            self.built = true;
            self.out = buf.into_iter();
        }
        Ok(self.out.next())
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.child.finish(cx);
    }
}

struct CrowdSortOp<'c> {
    child: BoxedOp<'c>,
    slot: usize,
    top_k: Option<usize>,
    redundancy: u32,
    out: Buffered<'c>,
    built: bool,
    rows_in: u64,
    rows_out: u64,
    questions: u64,
    spend: f64,
    worked: bool,
}

impl<'c> Operator<'c> for CrowdSortOp<'c> {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow<'c>>> {
        if !self.built {
            let mut rows = Vec::new();
            while let Some(r) = self.child.next(cx)? {
                rows.push(r);
            }
            self.built = true;
            if rows.len() <= 1 {
                // Nothing to order: succeed even without an oracle.
                self.out = rows.into_iter();
            } else {
                let q0 = cx.delivered();
                let s0 = cx.spent();
                let values: Vec<&Value> = rows.iter().map(|r| &r.values[self.slot]).collect();
                let order = crowd_sort_order(cx, &values, self.top_k, self.redundancy)?;
                self.rows_in = rows.len() as u64;
                self.rows_out = order.len() as u64;
                self.out = order
                    .into_iter()
                    .map(|i| rows[i].clone())
                    .collect::<Vec<_>>()
                    .into_iter();
                self.questions = cx.delivered() - q0;
                self.spend = cx.spent() - s0;
                self.worked = true;
            }
        }
        Ok(self.out.next())
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.child.finish(cx);
        if self.worked {
            cx.node_stats.push(NodeRuntime {
                node: "CrowdSort",
                rows_in: self.rows_in,
                rows_out: self.rows_out,
                questions: self.questions,
                spend: self.spend,
            });
        }
    }
}

/// Produces the best-first row ordering for a crowd sort.
fn crowd_sort_order(
    cx: &mut ExecCx<'_>,
    values: &[&Value],
    top_k: Option<usize>,
    votes: u32,
) -> Result<Vec<usize>> {
    let n = values.len();
    let oracle = cx.require_oracle(NO_ORACLE_SORT)?;
    let factory = &mut *cx.factory;
    match top_k {
        Some(k) if k < n => {
            let k = k.max(1);
            let out = crowd_top_k(oracle, n, k, votes, |id, a, b| {
                factory.compare_task(id, values[a], values[b])
            })?;
            cx.comparisons += out.matches as u64;
            Ok(out.winners)
        }
        _ => {
            // Full pairwise comparison graph ranked by Copeland score.
            let pairs: Vec<(usize, usize)> = (0..n)
                .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
                .collect();
            let graph: ComparisonGraph =
                collect_comparisons(oracle, n, &pairs, votes, |id, a, b| {
                    factory.compare_task(id, values[a], values[b])
                })?;
            cx.comparisons += pairs.len() as u64;
            Ok(order_by_scores(&copeland(&graph)))
        }
    }
}

struct LimitOp<'c> {
    child: BoxedOp<'c>,
    remaining: usize,
}

impl<'c> Operator<'c> for LimitOp<'c> {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow<'c>>> {
        if self.remaining == 0 {
            return Ok(None); // early exit: stop pulling from the child
        }
        match self.child.next(cx)? {
            Some(r) => {
                self.remaining -= 1;
                Ok(Some(r))
            }
            None => {
                self.remaining = 0;
                Ok(None)
            }
        }
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.child.finish(cx);
    }
}

struct ProjectOp<'c> {
    child: BoxedOp<'c>,
    /// Projected slots; empty projects everything (star).
    indices: Vec<usize>,
}

impl<'c> Operator<'c> for ProjectOp<'c> {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow<'c>>> {
        let Some(row) = self.child.next(cx)? else {
            return Ok(None);
        };
        if self.indices.is_empty() {
            return Ok(Some(row));
        }
        Ok(Some(ExecRow {
            values: self
                .indices
                .iter()
                .map(|&i| row.values[i].clone())
                .collect(),
            prov: row.prov,
        }))
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.child.finish(cx);
    }
}

struct CountStarOp<'c> {
    child: BoxedOp<'c>,
    emitted: bool,
}

impl<'c> Operator<'c> for CountStarOp<'c> {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow<'c>>> {
        if self.emitted {
            return Ok(None);
        }
        self.emitted = true;
        let mut count: i64 = 0;
        while self.child.next(cx)?.is_some() {
            count += 1;
        }
        Ok(Some(ExecRow {
            values: vec![Value::Int(count)],
            prov: Vec::new(),
        }))
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.child.finish(cx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::answer::AnswerValue;
    use crowdkit_core::ids::{TaskId, WorkerId};

    struct PricedOracle {
        delivered: Cell<u64>,
    }

    impl CrowdOracle for PricedOracle {
        fn ask_one(&self, task: &Task) -> Result<Answer> {
            self.delivered.set(self.delivered.get() + 1);
            let mut a = Answer::bare(
                task.id,
                WorkerId::new(self.delivered.get()),
                AnswerValue::Choice(1),
            );
            a.cost = 2.0;
            Ok(a)
        }
        fn remaining_budget(&self) -> Option<f64> {
            None
        }
        fn answers_delivered(&self) -> u64 {
            self.delivered.get()
        }
    }

    #[test]
    fn round_oracle_meters_rounds_and_spend() {
        let inner = PricedOracle {
            delivered: Cell::new(0),
        };
        let metered = RoundOracle::new(&inner, false);
        let task = Task::binary(TaskId::new(0), "q");
        let answers = metered.ask_many(&task, 3).unwrap();
        assert_eq!(answers.len(), 3);
        assert_eq!(metered.rounds(), 1, "one batched call is one round-trip");
        assert!((metered.spend() - 6.0).abs() < 1e-12);
        metered.ask_one(&task).unwrap();
        assert_eq!(metered.rounds(), 2);
        assert!((metered.spend() - 8.0).abs() < 1e-12);
        // Batch of two requests: still a single round-trip.
        let t2 = Task::binary(TaskId::new(1), "r");
        let reqs = vec![AskRequest::new(&task), AskRequest::new(&t2)];
        metered.ask_batch(&reqs).unwrap();
        assert_eq!(metered.rounds(), 3);
        assert!((metered.spend() - 12.0).abs() < 1e-12);
        assert_eq!(metered.answers_delivered(), 6);
    }

    /// A child operator that counts how many times it was pulled.
    struct CountingScan {
        rows: usize,
        pulls: Cell<usize>,
    }

    impl Operator<'static> for CountingScan {
        fn next(&mut self, _cx: &mut ExecCx<'_>) -> Result<Option<ExecRow<'static>>> {
            let n = self.pulls.get();
            self.pulls.set(n + 1);
            if n < self.rows {
                Ok(Some(ExecRow {
                    values: vec![Value::Int(n as i64)],
                    prov: vec![("t", n)],
                }))
            } else {
                Ok(None)
            }
        }
        fn finish(&mut self, _cx: &mut ExecCx<'_>) {}
    }

    struct NoFactory;

    impl TaskFactory for NoFactory {
        fn fill_task(&mut self, id: TaskId, _table: &str, _row: &[Value], column: &str) -> Task {
            Task::new(
                id,
                crowdkit_core::task::TaskKind::Fill {
                    attribute: column.to_owned(),
                },
                "unused",
            )
        }
        fn equal_task(&mut self, id: TaskId, _left: &Value, _right: &Value) -> Task {
            Task::binary(id, "unused")
        }
        fn compare_task(&mut self, id: TaskId, _left: &Value, _right: &Value) -> Task {
            Task::binary(id, "unused")
        }
    }

    #[test]
    fn limit_stops_pulling_from_its_child() {
        let child = CountingScan {
            rows: 100,
            pulls: Cell::new(0),
        };
        let mut limit = LimitOp {
            child: Box::new(child),
            remaining: 3,
        };
        let mut factory = NoFactory;
        let mut cx = ExecCx::new(None, &mut factory);
        let mut got = 0;
        while limit.next(&mut cx).unwrap().is_some() {
            got += 1;
        }
        assert_eq!(got, 3);
        // Further pulls stay shut off without touching the child.
        assert!(limit.next(&mut cx).unwrap().is_none());
    }

    #[test]
    fn machine_sort_places_nulls_last() {
        let rows = vec![vec![Value::Null], vec![Value::Int(2)], vec![Value::Int(1)]];
        let mut op = SortOp {
            child: Box::new(ScanOp::new("t", &rows, &[])),
            slot: 0,
            asc: true,
            out: Vec::new().into_iter(),
            built: false,
        };
        let mut factory = NoFactory;
        let mut cx = ExecCx::new(None, &mut factory);
        let mut out = Vec::new();
        while let Some(r) = op.next(&mut cx).unwrap() {
            out.push(r.values[0].clone());
        }
        assert_eq!(out, vec![Value::Int(1), Value::Int(2), Value::Null]);
    }

    /// `x > 2 AND x < 8` over the column `x`.
    fn band() -> Vec<BoundPredicate> {
        let x = || {
            BoundExpr::Slot(crate::ir::SlotRef {
                slot: 0,
                name: "x".to_owned(),
            })
        };
        vec![
            BoundPredicate::Compare {
                left: x(),
                op: CompareOp::Gt,
                right: BoundExpr::Literal(Value::Int(2)),
            },
            BoundPredicate::Compare {
                left: x(),
                op: CompareOp::Lt,
                right: BoundExpr::Literal(Value::Int(8)),
            },
        ]
    }

    #[test]
    fn a_folded_filter_keeps_and_counts_the_rows_filter_op_does() {
        let rows: Vec<Vec<Value>> = [3, 9, 1, 7, 5, 2]
            .into_iter()
            .map(|x| vec![Value::Int(x)])
            .collect();
        let predicates = band();
        type Kept<'c> = Vec<(Vec<Value>, Vec<(&'c str, usize)>)>;
        let run = |folded: bool, limit: usize| -> (Kept<'_>, Vec<(String, u64, u64)>) {
            let child: BoxedOp<'_> = if folded {
                Box::new(ScanOp::new("t", &rows, &predicates))
            } else {
                Box::new(FilterOp {
                    child: Box::new(ScanOp::new("t", &rows, &[])),
                    test: MachineTest::new(&predicates),
                })
            };
            let mut op = LimitOp {
                child,
                remaining: limit,
            };
            let mut factory = NoFactory;
            let mut cx = ExecCx::new(None, &mut factory);
            let mut kept = Vec::new();
            while let Some(r) = op.next(&mut cx).unwrap() {
                kept.push((r.values, r.prov));
            }
            op.finish(&mut cx);
            (kept, cx.observations)
        };
        for limit in [0, 1, 2, 3, 10] {
            assert_eq!(run(true, limit), run(false, limit), "LIMIT {limit}");
        }
        // LIMIT 2 stops at the fourth row, 7: rows 3, 9, 1 and 7 were
        // tested by `x > 2`, and 3, 9 and 7 by `x < 8`.
        let (kept, observed) = run(true, 2);
        assert_eq!(
            kept,
            vec![
                (vec![Value::Int(3)], vec![("t", 0)]),
                (vec![Value::Int(7)], vec![("t", 3)])
            ]
        );
        assert_eq!(
            observed,
            vec![("x > 2".to_owned(), 3, 4), ("x < 8".to_owned(), 2, 3)]
        );
    }

    #[test]
    fn fill_values_take_the_winners_surface_form_in_the_column_type() {
        let mk = |t: u64, text: &str| {
            Answer::bare(
                TaskId::new(t),
                WorkerId::new(t),
                AnswerValue::Text(text.to_owned()),
            )
        };
        let win = fill_value(
            &[mk(0, "Phone"), mk(1, " phone "), mk(2, "laptop")],
            ColumnType::Text,
        );
        assert_eq!(win, Some(Value::Text("Phone".to_owned())));
        let int = fill_value(&[mk(0, " 42 ")], ColumnType::Int);
        assert_eq!(int, Some(Value::Int(42)));
        let bad_int = fill_value(&[mk(0, "many")], ColumnType::Int);
        assert_eq!(bad_int, None, "an unparsable INT stays NULL");
        assert_eq!(
            fill_value(&[mk(0, "a"), mk(1, "b")], ColumnType::Int),
            None,
            "a tie stays NULL"
        );
    }
}
