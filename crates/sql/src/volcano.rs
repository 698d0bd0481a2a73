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
/// index) for crowd-fill write-back.
#[derive(Debug, Clone)]
pub(crate) struct ExecRow {
    /// Column values in the operator's output layout.
    pub values: Vec<Value>,
    /// `(table, base_row_index)` per base table contributing to this row.
    pub prov: Vec<(String, usize)>,
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
    /// CROWDEQUAL verdict cache, keyed by unordered display pair.
    equal_cache: HashMap<(String, String), bool>,
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

    /// Cached CROWDEQUAL verdict for a value pair, if one was purchased.
    fn cached_equal(&self, left: &Value, right: &Value) -> Option<bool> {
        self.equal_cache.get(&equal_key(left, right)).copied()
    }

    /// Buys (or reuses) one CROWDEQUAL verdict.
    fn crowd_equal(&mut self, left: &Value, right: &Value, votes: u32) -> Result<bool> {
        let key = equal_key(left, right);
        if let Some(&v) = self.equal_cache.get(&key) {
            return Ok(v);
        }
        let oracle = self.require_oracle(NO_ORACLE_FILTER)?;
        let task = self.factory.equal_task(self.ids.next_task(), left, right);
        let out = oracle.ask(&AskRequest::new(&task).with_redundancy(votes.max(1) as usize))?;
        self.settle_equal(key, &out)
    }

    /// Records one purchased CROWDEQUAL verdict: the yes/no majority of
    /// its answers (ties are "no").
    fn settle_equal(&mut self, key: (String, String), out: &AskOutcome) -> Result<bool> {
        out.check()?;
        let verdict = yes_majority(&out.answers);
        self.equal_cache.insert(key, verdict);
        self.equal_checks += 1;
        Ok(verdict)
    }
}

/// Unordered cache key for a CROWDEQUAL value pair.
fn equal_key(left: &Value, right: &Value) -> (String, String) {
    let mut key = (left.display_raw(), right.display_raw());
    if key.0 > key.1 {
        std::mem::swap(&mut key.0, &mut key.1);
    }
    key
}

fn eval(e: &BoundExpr, row: &ExecRow) -> Value {
    match e {
        BoundExpr::Slot(s) => row.values[s.slot].clone(),
        BoundExpr::Literal(v) => v.clone(),
    }
}

/// SQL WHERE semantics: NULL comparisons drop the row.
fn eval_machine_predicate(p: &BoundPredicate, row: &ExecRow) -> Result<bool> {
    let BoundPredicate::Compare { left, op, right } = p else {
        return Err(CrowdError::Execution(
            "crowd predicate in MachineFilter".into(),
        ));
    };
    let lv = eval(left, row);
    let rv = eval(right, row);
    Ok(match op {
        CompareOp::Eq => lv.sql_eq(&rv).unwrap_or(false),
        CompareOp::Ne => lv.sql_eq(&rv).map(|b| !b).unwrap_or(false),
        CompareOp::Lt => lv.compare(&rv).is_some_and(|o| o.is_lt()),
        CompareOp::Le => lv.compare(&rv).is_some_and(|o| o.is_le()),
        CompareOp::Gt => lv.compare(&rv).is_some_and(|o| o.is_gt()),
        CompareOp::Ge => lv.compare(&rv).is_some_and(|o| o.is_ge()),
    })
}

/// The Volcano iterator interface.
pub(crate) trait Operator {
    /// Pulls the next row, or `None` at end of stream.
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow>>;

    /// Called once after the root is drained (or abandoned by a limit):
    /// recurses into children first, then flushes this operator's
    /// runtime stats and selectivity observations into the context, so
    /// `cx.node_stats` ends up in deterministic bottom-up plan order.
    fn finish(&mut self, cx: &mut ExecCx<'_>);
}

/// Lowers a physical plan into an operator tree. Scans materialize their
/// rows here (the caller holds the catalog lock only around this call).
/// Plans that need the crowd fail here when no oracle was provided.
pub(crate) fn build(
    plan: &Plan,
    catalog: &Catalog,
    has_oracle: bool,
) -> Result<Box<dyn Operator>> {
    Ok(match plan {
        Plan::Scan { table, .. } => {
            let rows = catalog
                .rows(table)?
                .iter()
                .enumerate()
                .map(|(i, r)| ExecRow {
                    values: r.clone(),
                    prov: vec![(table.clone(), i)],
                })
                .collect();
            Box::new(ScanOp { rows, pos: 0 })
        }
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
                queue: Vec::new(),
                queue_pos: 0,
            })
        }
        Plan::Filter { input, predicates } => {
            let keys: Vec<String> = predicates.iter().map(|p| p.to_string()).collect();
            let counts = vec![(0u64, 0u64); predicates.len()];
            Box::new(FilterOp {
                child: build(input, catalog, has_oracle)?,
                predicates: predicates.clone(),
                keys,
                counts,
                reported: false,
            })
        }
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
                slots: slots.clone(),
                redundancy: *redundancy,
                batch: *batch,
                buf: Vec::new(),
                pos: 0,
                built: false,
                questions: 0,
                spend: 0.0,
                reported: false,
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
            let keys: Vec<String> = predicates.iter().map(|p| p.to_string()).collect();
            let counts = vec![(0u64, 0u64); predicates.len()];
            Box::new(CrowdCompareOp {
                child: build(input, catalog, has_oracle)?,
                predicates: predicates.clone(),
                redundancy: *redundancy,
                keys,
                counts,
                rows_in: 0,
                rows_out: 0,
                questions: 0,
                spend: 0.0,
                reported: false,
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
            let lw = left.width();
            Box::new(CrowdJoinOp {
                left: build(left, catalog, has_oracle)?,
                right: build(right, catalog, has_oracle)?,
                left_expr: left_expr.clone(),
                right_expr: right_expr.clone(),
                left_width: lw,
                key_display: format!("CROWDEQUAL({left_expr}, {right_expr})"),
                redundancy: *redundancy,
                batch: *batch,
                outer: *outer,
                out: Vec::new(),
                pos: 0,
                built: false,
                rows_in: 0,
                matched: 0,
                pairs: 0,
                questions: 0,
                spend: 0.0,
                reported: false,
            })
        }
        Plan::Sort { input, slot, asc } => Box::new(SortOp {
            child: build(input, catalog, has_oracle)?,
            slot: slot.slot,
            asc: *asc,
            buf: Vec::new(),
            pos: 0,
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
            out: Vec::new(),
            pos: 0,
            built: false,
            rows_in: 0,
            questions: 0,
            spend: 0.0,
            worked: false,
            reported: false,
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
    /// Result rows, in plan order.
    pub rows: Vec<ExecRow>,
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
        rows.push(r);
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

struct ScanOp {
    rows: Vec<ExecRow>,
    pos: usize,
}

impl Operator for ScanOp {
    fn next(&mut self, _cx: &mut ExecCx<'_>) -> Result<Option<ExecRow>> {
        if self.pos < self.rows.len() {
            self.pos += 1;
            Ok(Some(self.rows[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }

    fn finish(&mut self, _cx: &mut ExecCx<'_>) {}
}

/// Combines a left and right row (values and provenance concatenated).
fn combine(a: &ExecRow, b: &ExecRow) -> ExecRow {
    let mut values = a.values.clone();
    values.extend(b.values.iter().cloned());
    let mut prov = a.prov.clone();
    prov.extend(b.prov.iter().cloned());
    ExecRow { values, prov }
}

struct CrossJoinOp {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    right_buf: Vec<ExecRow>,
    built: bool,
    current: Option<ExecRow>,
    right_pos: usize,
}

impl Operator for CrossJoinOp {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow>> {
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

struct HashJoinOp {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    /// Probe slot in the left row.
    li: usize,
    /// Build slot in the right row (already rebased below the join).
    ri: usize,
    table: HashMap<Value, Vec<ExecRow>>,
    built: bool,
    queue: Vec<ExecRow>,
    queue_pos: usize,
}

impl Operator for HashJoinOp {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow>> {
        if !self.built {
            // Build side: the right input, keyed by join value. Hash
            // order is safe: the table is only probed by key and output
            // order follows the probe side. NULL keys never match.
            while let Some(b) = self.right.next(cx)? {
                if !b.values[self.ri].is_null() {
                    self.table.entry(b.values[self.ri].clone()).or_default().push(b);
                }
            }
            self.built = true;
        }
        loop {
            if self.queue_pos < self.queue.len() {
                self.queue_pos += 1;
                return Ok(Some(self.queue[self.queue_pos - 1].clone()));
            }
            let Some(a) = self.left.next(cx)? else {
                return Ok(None);
            };
            if a.values[self.li].is_null() {
                continue; // NULL keys never match
            }
            if let Some(matches) = self.table.get(&a.values[self.li]) {
                self.queue = matches.iter().map(|b| combine(&a, b)).collect();
                self.queue_pos = 0;
            }
        }
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.left.finish(cx);
        self.right.finish(cx);
    }
}

struct FilterOp {
    child: Box<dyn Operator>,
    predicates: Vec<BoundPredicate>,
    keys: Vec<String>,
    /// `(passed, seen)` per predicate, flushed as selectivity feedback.
    counts: Vec<(u64, u64)>,
    reported: bool,
}

impl Operator for FilterOp {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow>> {
        loop {
            let Some(row) = self.child.next(cx)? else {
                return Ok(None);
            };
            let mut pass = true;
            for (i, p) in self.predicates.iter().enumerate() {
                self.counts[i].1 += 1;
                if eval_machine_predicate(p, &row)? {
                    self.counts[i].0 += 1;
                } else {
                    pass = false;
                    break;
                }
            }
            if pass {
                return Ok(Some(row));
            }
        }
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.child.finish(cx);
        if !self.reported {
            self.reported = true;
            for (key, &(passed, seen)) in self.keys.iter().zip(&self.counts) {
                cx.observations.push((key.clone(), passed, seen));
            }
        }
    }
}

struct CrowdFillOp {
    child: Box<dyn Operator>,
    slots: Vec<FillSlot>,
    redundancy: u32,
    batch: usize,
    buf: Vec<ExecRow>,
    pos: usize,
    built: bool,
    questions: u64,
    spend: f64,
    reported: bool,
}

/// One fill purchase order: base cell key, the task to ask, target type.
struct PendingFill {
    key: (String, usize, usize),
    task: Task,
    ty: ColumnType,
}

impl CrowdFillOp {
    fn fill_all(&mut self, cx: &mut ExecCx<'_>) -> Result<()> {
        let oracle = cx.require_oracle(NO_ORACLE_FILL)?;
        let q0 = cx.delivered();
        let s0 = cx.spent();
        // Collect one purchase per still-unpriced base cell, in
        // column-major then row order (the old executor's ask order).
        let mut pending: Vec<PendingFill> = Vec::new();
        let mut queued: HashSet<(String, usize, usize)> = HashSet::new();
        for fs in &self.slots {
            for row in &self.buf {
                if !row.values[fs.slot].is_null() {
                    continue;
                }
                let Some(&(_, base_row)) = row.prov.iter().find(|(t, _)| t == &fs.table) else {
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
                pending.push(PendingFill { key, task, ty: fs.ty });
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
        for fs in &self.slots {
            for row in &mut self.buf {
                if !row.values[fs.slot].is_null() {
                    continue;
                }
                let Some(&(_, base_row)) = row.prov.iter().find(|(t, _)| t == &fs.table) else {
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

impl Operator for CrowdFillOp {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow>> {
        if !self.built {
            while let Some(r) = self.child.next(cx)? {
                self.buf.push(r);
            }
            self.built = true;
            self.fill_all(cx)?;
        }
        if self.pos < self.buf.len() {
            self.pos += 1;
            Ok(Some(self.buf[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.child.finish(cx);
        if !self.reported {
            self.reported = true;
            cx.node_stats.push(NodeRuntime {
                node: "CrowdFill",
                rows_in: self.buf.len() as u64,
                rows_out: self.buf.len() as u64,
                questions: self.questions,
                spend: self.spend,
            });
        }
    }
}

struct CrowdCompareOp {
    child: Box<dyn Operator>,
    predicates: Vec<BoundPredicate>,
    redundancy: u32,
    keys: Vec<String>,
    counts: Vec<(u64, u64)>,
    rows_in: u64,
    rows_out: u64,
    questions: u64,
    spend: f64,
    reported: bool,
}

impl Operator for CrowdCompareOp {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow>> {
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
                let lv = eval(left, &row);
                let rv = eval(right, &row);
                // NULL operands drop the row without asking the crowd.
                if lv.is_null() || rv.is_null() || !cx.crowd_equal(&lv, &rv, self.redundancy)? {
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
        if !self.reported {
            self.reported = true;
            cx.node_stats.push(NodeRuntime {
                node: "CrowdFilter",
                rows_in: self.rows_in,
                rows_out: self.rows_out,
                questions: self.questions,
                spend: self.spend,
            });
            for (key, &(passed, seen)) in self.keys.iter().zip(&self.counts) {
                cx.observations.push((key.clone(), passed, seen));
            }
        }
    }
}

struct CrowdJoinOp {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    left_expr: BoundExpr,
    right_expr: BoundExpr,
    left_width: usize,
    key_display: String,
    redundancy: u32,
    batch: usize,
    outer: Side,
    out: Vec<ExecRow>,
    pos: usize,
    built: bool,
    rows_in: u64,
    matched: u64,
    pairs: u64,
    questions: u64,
    spend: f64,
    reported: bool,
}

impl CrowdJoinOp {
    /// Evaluates the join expression for one side's row. Join
    /// expressions are written against the joined layout; right-side
    /// slots are rebased by the left width.
    fn side_value(&self, expr: &BoundExpr, row: &ExecRow, right: bool) -> Value {
        match expr {
            BoundExpr::Slot(s) => {
                let idx = if right { s.slot - self.left_width } else { s.slot };
                row.values[idx].clone()
            }
            BoundExpr::Literal(v) => v.clone(),
        }
    }

    fn run(&mut self, cx: &mut ExecCx<'_>) -> Result<()> {
        let mut lrows = Vec::new();
        while let Some(r) = self.left.next(cx)? {
            lrows.push(r);
        }
        let mut rrows = Vec::new();
        while let Some(r) = self.right.next(cx)? {
            rrows.push(r);
        }
        self.rows_in = (lrows.len() * rrows.len()) as u64;
        let lvals: Vec<Value> = lrows
            .iter()
            .map(|r| self.side_value(&self.left_expr, r, false))
            .collect();
        let rvals: Vec<Value> = rrows
            .iter()
            .map(|r| self.side_value(&self.right_expr, r, true))
            .collect();
        let q0 = cx.delivered();
        let s0 = cx.spent();
        // Verdict phase: buy every needed CROWDEQUAL verdict in
        // outer-major order (the `outer` knob controls which side's
        // stripes form the batched round-trips).
        let (outer_vals, inner_vals, outer_is_left) = match self.outer {
            Side::Left => (&lvals, &rvals, true),
            Side::Right => (&rvals, &lvals, false),
        };
        let oracle = cx.require_oracle(NO_ORACLE_JOIN)?;
        let votes = self.redundancy.max(1) as usize;
        for ov in outer_vals {
            if ov.is_null() {
                continue;
            }
            // One stripe: all still-unjudged pairs for this outer row,
            // asked `batch` verdicts per platform round-trip (0 means one).
            let mut stripe: Vec<((String, String), Task)> = Vec::new();
            let mut queued: HashSet<(String, String)> = HashSet::new();
            for iv in inner_vals {
                if iv.is_null() {
                    continue;
                }
                let (lv, rv) = if outer_is_left { (ov, iv) } else { (iv, ov) };
                let key = equal_key(lv, rv);
                if cx.equal_cache.contains_key(&key) || queued.contains(&key) {
                    continue;
                }
                let task = cx.factory.equal_task(cx.ids.next_task(), lv, rv);
                queued.insert(key.clone());
                stripe.push((key, task));
            }
            for chunk in stripe.chunks(self.batch.max(1)) {
                let reqs: Vec<AskRequest<'_>> = chunk
                    .iter()
                    .map(|(_, task)| AskRequest::new(task).with_redundancy(votes))
                    .collect();
                let outs = oracle.ask_batch(&reqs)?;
                for ((key, _), out) in chunk.iter().zip(&outs) {
                    cx.settle_equal(key.clone(), out)?;
                }
            }
        }
        self.questions = cx.delivered() - q0;
        self.spend = cx.spent() - s0;
        // Emit phase: always left-major, so the join's output order is
        // identical to CrowdFilter-over-cross regardless of `outer`.
        for (a, lv) in lrows.iter().zip(&lvals) {
            if lv.is_null() {
                continue;
            }
            for (b, rv) in rrows.iter().zip(&rvals) {
                if rv.is_null() {
                    continue;
                }
                self.pairs += 1;
                if cx.cached_equal(lv, rv) == Some(true) {
                    self.matched += 1;
                    self.out.push(combine(a, b));
                }
            }
        }
        Ok(())
    }
}

impl Operator for CrowdJoinOp {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow>> {
        if !self.built {
            self.built = true;
            self.run(cx)?;
        }
        if self.pos < self.out.len() {
            self.pos += 1;
            Ok(Some(self.out[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.left.finish(cx);
        self.right.finish(cx);
        if !self.reported {
            self.reported = true;
            cx.node_stats.push(NodeRuntime {
                node: "CrowdJoin",
                rows_in: self.rows_in,
                rows_out: self.out.len() as u64,
                questions: self.questions,
                spend: self.spend,
            });
            cx.observations
                .push((self.key_display.clone(), self.matched, self.pairs));
        }
    }
}

struct SortOp {
    child: Box<dyn Operator>,
    slot: usize,
    asc: bool,
    buf: Vec<ExecRow>,
    pos: usize,
    built: bool,
}

impl Operator for SortOp {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow>> {
        if !self.built {
            while let Some(r) = self.child.next(cx)? {
                self.buf.push(r);
            }
            let (slot, asc) = (self.slot, self.asc);
            self.buf.sort_by(|a, b| {
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
        }
        if self.pos < self.buf.len() {
            self.pos += 1;
            Ok(Some(self.buf[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.child.finish(cx);
    }
}

struct CrowdSortOp {
    child: Box<dyn Operator>,
    slot: usize,
    top_k: Option<usize>,
    redundancy: u32,
    out: Vec<ExecRow>,
    pos: usize,
    built: bool,
    rows_in: u64,
    questions: u64,
    spend: f64,
    worked: bool,
    reported: bool,
}

impl Operator for CrowdSortOp {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow>> {
        if !self.built {
            let mut rows = Vec::new();
            while let Some(r) = self.child.next(cx)? {
                rows.push(r);
            }
            self.built = true;
            if rows.len() <= 1 {
                // Nothing to order: succeed even without an oracle.
                self.out = rows;
            } else {
                let q0 = cx.delivered();
                let s0 = cx.spent();
                let slot = self.slot;
                let values: Vec<Value> = rows.iter().map(|r| r.values[slot].clone()).collect();
                let order = crowd_sort_order(cx, &values, self.top_k, self.redundancy)?;
                self.rows_in = rows.len() as u64;
                self.out = order.into_iter().map(|i| rows[i].clone()).collect();
                self.questions = cx.delivered() - q0;
                self.spend = cx.spent() - s0;
                self.worked = true;
            }
        }
        if self.pos < self.out.len() {
            self.pos += 1;
            Ok(Some(self.out[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.child.finish(cx);
        if self.worked && !self.reported {
            self.reported = true;
            cx.node_stats.push(NodeRuntime {
                node: "CrowdSort",
                rows_in: self.rows_in,
                rows_out: self.out.len() as u64,
                questions: self.questions,
                spend: self.spend,
            });
        }
    }
}

/// Produces the best-first row ordering for a crowd sort.
fn crowd_sort_order(
    cx: &mut ExecCx<'_>,
    values: &[Value],
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
                factory.compare_task(id, &values[a], &values[b])
            })?;
            cx.comparisons += out.matches as u64;
            Ok(out.winners)
        }
        _ => {
            // Full pairwise comparison graph ranked by Copeland score.
            let pairs: Vec<(usize, usize)> = (0..n)
                .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
                .collect();
            let graph: ComparisonGraph = collect_comparisons(oracle, n, &pairs, votes, |id, a, b| {
                factory.compare_task(id, &values[a], &values[b])
            })?;
            cx.comparisons += pairs.len() as u64;
            Ok(order_by_scores(&copeland(&graph)))
        }
    }
}

struct LimitOp {
    child: Box<dyn Operator>,
    remaining: usize,
}

impl Operator for LimitOp {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow>> {
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

struct ProjectOp {
    child: Box<dyn Operator>,
    /// Projected slots; empty projects everything (star).
    indices: Vec<usize>,
}

impl Operator for ProjectOp {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow>> {
        let Some(row) = self.child.next(cx)? else {
            return Ok(None);
        };
        if self.indices.is_empty() {
            return Ok(Some(row));
        }
        Ok(Some(ExecRow {
            values: self.indices.iter().map(|&i| row.values[i].clone()).collect(),
            prov: row.prov,
        }))
    }

    fn finish(&mut self, cx: &mut ExecCx<'_>) {
        self.child.finish(cx);
    }
}

struct CountStarOp {
    child: Box<dyn Operator>,
    emitted: bool,
}

impl Operator for CountStarOp {
    fn next(&mut self, cx: &mut ExecCx<'_>) -> Result<Option<ExecRow>> {
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

    impl Operator for CountingScan {
        fn next(&mut self, _cx: &mut ExecCx<'_>) -> Result<Option<ExecRow>> {
            let n = self.pulls.get();
            self.pulls.set(n + 1);
            if n < self.rows {
                Ok(Some(ExecRow {
                    values: vec![Value::Int(n as i64)],
                    prov: vec![("t".to_owned(), n)],
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
        let rows = vec![
            ExecRow {
                values: vec![Value::Null],
                prov: vec![],
            },
            ExecRow {
                values: vec![Value::Int(2)],
                prov: vec![],
            },
            ExecRow {
                values: vec![Value::Int(1)],
                prov: vec![],
            },
        ];
        let mut op = SortOp {
            child: Box::new(ScanOp { rows, pos: 0 }),
            slot: 0,
            asc: true,
            buf: Vec::new(),
            pos: 0,
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

    #[test]
    fn fill_values_take_the_winners_surface_form_in_the_column_type() {
        let mk = |t: u64, text: &str| {
            Answer::bare(
                TaskId::new(t),
                WorkerId::new(t),
                AnswerValue::Text(text.to_owned()),
            )
        };
        let win = fill_value(&[mk(0, "Phone"), mk(1, " phone "), mk(2, "laptop")], ColumnType::Text);
        assert_eq!(win, Some(Value::Text("Phone".to_owned())));
        let int = fill_value(&[mk(0, " 42 ")], ColumnType::Int);
        assert_eq!(int, Some(Value::Int(42)));
        let bad_int = fill_value(&[mk(0, "many")], ColumnType::Int);
        assert_eq!(bad_int, None, "an unparsable INT stays NULL");
        assert_eq!(fill_value(&[mk(0, "a"), mk(1, "b")], ColumnType::Int), None, "a tie stays NULL");
    }
}
