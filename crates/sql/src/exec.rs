//! The CrowdSQL session: parse → bind → rewrite → cost → execute.
//!
//! [`Session`] is the public query surface. It owns the catalog and the
//! optimizer's [`SelectivityMemory`] behind a lock, so every method takes
//! `&self` — a session is a shared service like the platform it fronts,
//! and concurrent readers may plan and run queries while write-back of
//! purchased cells is serialized at the end of each query.
//!
//! A query runs through the full pipeline:
//!
//! 1. [`parse`](crate::parser) + [`bind`](crate::binder) — names and
//!    types resolve against the catalog into the canonical logical
//!    [`crate::ir::Plan`];
//! 2. [`rewrite`](crate::rewrite) — rule-based transforms (lazy fill,
//!    predicate pushdown, hash-join promotion, crowd-join formation and
//!    reordering, top-k fusion, batching) produce candidate plans;
//! 3. [`cost`](crate::cost) — candidates are scored on predicted spend,
//!    round-latency and quality at unit prices and an assumed worker
//!    accuracy of 0.9; the lowest [`CostVector::scalarize`] score wins;
//! 4. `volcano` (crate-private) — the chosen plan executes as a pull
//!    pipeline, metering actual spend and round-trips against the
//!    prediction and feeding observed selectivities back into the memory.
//!
//! Crowd operators buy answers through the [`CrowdOracle`] using tasks
//! rendered by a [`TaskFactory`]:
//!
//! * **CrowdFill** — `votes` open-text answers per NULL cell, reconciled
//!   by normalized plurality; reconciled values are written back to the
//!   base table so later queries reuse them (CrowdDB's behaviour).
//! * **CrowdFilter / CrowdJoin** — `votes` binary judgements per
//!   `CROWDEQUAL`, majority decides; verdicts are cached per value pair
//!   within a query.
//! * **CrowdSort** — full pairwise comparisons ranked by Copeland score,
//!   or a top-k tournament when the optimizer fused a LIMIT into it.

use std::fmt;
use std::fmt::Write as _;

use parking_lot::{RwLock, RwLockReadGuard};

use crowdkit_core::answer::Preference;
use crowdkit_core::error::{CrowdError, Result};
use crowdkit_core::ids::TaskId;
use crowdkit_core::task::Task;
use crowdkit_core::traits::CrowdOracle;
use crowdkit_obs::{self as obs, Event};

use crate::ast::{Select, Statement};
use crate::binder::bind;
use crate::catalog::Catalog;
use crate::cost::{CostVector, Estimator, NodeCost, PlanCost, SelectivityMemory};
use crate::ir::Plan;
use crate::parser::parse_statement;
use crate::rewrite::optimize as optimize_plan;
use crate::value::Value;
use crate::volcano::{execute, RoundOracle};

/// Renders the crowd-facing tasks for the crowd operators. In simulation,
/// implementations attach the latent ground truth so simulated workers
/// can answer; against a live platform they would render HTML.
pub trait TaskFactory {
    /// Task asking for the value of `column` for the given row of `table`.
    fn fill_task(&mut self, id: TaskId, table: &str, row: &[Value], column: &str) -> Task;

    /// Binary task asking whether `left` and `right` denote the same thing
    /// (label 1 = yes).
    fn equal_task(&mut self, id: TaskId, left: &Value, right: &Value) -> Task;

    /// Pairwise task asking which of `left`/`right` ranks higher
    /// (`Preference::Left` = left).
    fn compare_task(&mut self, id: TaskId, left: &Value, right: &Value) -> Task;
}

/// Per-query execution knobs, built fluently:
///
/// ```
/// use crowdkit_sql::QueryOpts;
/// let opts = QueryOpts::new().votes(5).batch(8);
/// assert!(opts.optimize);
/// let naive = QueryOpts::naive();
/// assert!(!naive.optimize);
/// ```
#[derive(Debug, Clone)]
pub struct QueryOpts {
    /// Redundant answers bought per crowd question (≥ 1).
    pub votes: u32,
    /// Run the rewriter + cost-based selection (false = canonical plan).
    pub optimize: bool,
    /// Crowd questions per platform round-trip (0 = one ask per
    /// question, the latency-naive default).
    pub batch: usize,
}

impl Default for QueryOpts {
    fn default() -> Self {
        Self {
            votes: 3,
            optimize: true,
            batch: 0,
        }
    }
}

impl QueryOpts {
    /// Default options: 3 votes, optimizer on, no batching.
    pub fn new() -> Self {
        Self::default()
    }

    /// Options that run the canonical (naive) plan unrewritten.
    pub fn naive() -> Self {
        Self {
            optimize: false,
            ..Self::default()
        }
    }

    /// Sets the redundancy per crowd question.
    pub fn votes(mut self, votes: u32) -> Self {
        self.votes = votes;
        self
    }

    /// Turns the optimizer on or off.
    pub fn optimize(mut self, on: bool) -> Self {
        self.optimize = on;
        self
    }

    /// Sets the questions-per-round-trip batching knob.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }
}

/// Crowd spend of one query: what was bought, and what the optimizer
/// predicted it would cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Total crowd answers purchased.
    pub questions: u64,
    /// NULL cells filled.
    pub cells_filled: u64,
    /// CROWDEQUAL verdicts bought (cache misses).
    pub equal_checks: u64,
    /// Pairwise comparison matches played.
    pub comparisons: u64,
    /// Rows returned.
    pub rows_out: usize,
    /// Platform round-trips performed (latency proxy).
    pub rounds: u64,
    /// Actual money spent (sum of per-answer costs).
    pub spend: f64,
    /// Spend the cost model predicted for the executed plan.
    pub predicted_spend: f64,
    /// Round-trips the cost model predicted for the executed plan.
    pub predicted_rounds: f64,
}

/// The structured result of `EXPLAIN`: both plan texts, the rewrite
/// rules that fired, and the cost model's prediction.
///
/// `Display` renders the physical plan tree exactly as the pre-IR
/// explain did; [`ExplainReport::detailed`] adds the cost columns.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    /// Whether the optimizer was enabled.
    pub optimized: bool,
    /// The canonical logical plan, rendered.
    pub logical: String,
    /// The chosen physical plan, rendered.
    pub physical: String,
    /// Names of the rewrite rules that fired (sorted, deduplicated).
    pub rewrites: Vec<String>,
    /// Predicted total cost of the physical plan.
    pub predicted: CostVector,
    /// Per-operator prediction, bottom-up.
    pub per_node: Vec<NodeCost>,
}

impl fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.physical)
    }
}

impl ExplainReport {
    /// Multi-line rendering with predicted spend/rounds/quality per
    /// operator.
    pub fn detailed(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "logical plan:");
        for line in self.logical.lines() {
            let _ = writeln!(s, "  {line}");
        }
        let rules = if self.rewrites.is_empty() {
            "no rewrites".to_owned()
        } else {
            self.rewrites.join(", ")
        };
        let _ = writeln!(s, "physical plan ({rules}):");
        for line in self.physical.lines() {
            let _ = writeln!(s, "  {line}");
        }
        let _ = writeln!(
            s,
            "predicted: spend={:.2} rounds={:.2} quality={:.4}",
            self.predicted.spend, self.predicted.rounds, self.predicted.quality
        );
        let _ = writeln!(s, "per-operator (bottom-up):");
        for n in &self.per_node {
            let _ = writeln!(
                s,
                "  {:<44} rows={:>8.1} spend={:>9.2} rounds={:>9.2}",
                n.node, n.rows_out, n.cost.spend, n.cost.rounds
            );
        }
        s
    }
}

#[derive(Debug, Default)]
struct SessionState {
    catalog: Catalog,
    memory: SelectivityMemory,
}

impl SessionState {
    /// Feeds an execution's observed predicate pass rates back into the
    /// cost model, as every SELECT does, crowd-powered or not.
    fn learn(&mut self, observations: &[(String, u64, u64)]) {
        for (key, passed, total) in observations {
            self.memory.record(key, *passed, *total);
        }
    }
}

/// A CrowdSQL session: catalog, optimizer memory, statement execution.
#[derive(Debug, Default)]
pub struct Session {
    inner: RwLock<SessionState>,
}

/// Everything planning produced for one SELECT.
struct Planned {
    logical: Plan,
    chosen: Plan,
    rules: Vec<String>,
    predicted: PlanCost,
}

/// Per-worker accuracy the cost model assumes when it predicts quality.
const ASSUMED_ACCURACY: f64 = 0.9;

fn plan_select(
    state: &SessionState,
    select: &Select,
    opts: &QueryOpts,
    optimized: bool,
) -> Result<Planned> {
    let bound = bind(select, &state.catalog, opts.votes.max(1))?;
    let logical = bound.plan;
    let est = Estimator::new(&state.catalog, &state.memory, ASSUMED_ACCURACY);
    let (chosen, rules) = if optimized {
        let rw = optimize_plan(&logical, &est, opts.batch);
        (rw.plan, rw.rules.iter().map(|r| (*r).to_owned()).collect())
    } else {
        (logical.clone(), Vec::new())
    };
    let predicted = est.estimate(&chosen);
    Ok(Planned {
        logical,
        chosen,
        rules,
        predicted,
    })
}

fn expect_select(sql: &str) -> Result<Select> {
    match parse_statement(sql)? {
        Statement::Select(s) | Statement::Explain(s) => Ok(s),
        _ => Err(CrowdError::Semantic("expected a SELECT".into())),
    }
}

impl Session {
    /// An empty session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the catalog (holds a read lock while borrowed).
    pub fn catalog(&self) -> impl std::ops::Deref<Target = Catalog> + '_ {
        struct Guard<'a>(RwLockReadGuard<'a, SessionState>);
        impl std::ops::Deref for Guard<'_> {
            type Target = Catalog;
            fn deref(&self) -> &Catalog {
                &self.0.catalog
            }
        }
        Guard(self.inner.read())
    }

    /// Executes a CREATE TABLE or INSERT statement.
    pub fn execute_ddl(&self, sql: &str) -> Result<()> {
        let stmt = parse_statement(sql)?;
        let mut state = self.inner.write();
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                crowd,
            } => state.catalog.create_table(&name, &columns, crowd),
            Statement::Insert { table, rows } => state.catalog.insert(&table, rows),
            _ => Err(CrowdError::Semantic(
                "expected CREATE TABLE or INSERT".into(),
            )),
        }
    }

    /// Plans a SELECT (optimized or naive) without running it, returning
    /// the structured report. `report.to_string()` is the physical plan
    /// tree; [`ExplainReport::detailed`] adds predicted cost columns.
    pub fn explain(&self, sql: &str, optimized: bool) -> Result<ExplainReport> {
        self.explain_with(sql, optimized, &QueryOpts::default())
    }

    /// [`Session::explain`] under explicit [`QueryOpts`] (vote count and
    /// batching change the predicted numbers).
    pub fn explain_with(
        &self,
        sql: &str,
        optimized: bool,
        opts: &QueryOpts,
    ) -> Result<ExplainReport> {
        let select = expect_select(sql)?;
        let state = self.inner.read();
        let planned = plan_select(&state, &select, opts, optimized)?;
        Ok(ExplainReport {
            optimized,
            logical: planned.logical.to_string(),
            physical: planned.chosen.to_string(),
            rewrites: planned.rules,
            predicted: planned.predicted.total,
            per_node: planned.predicted.nodes,
        })
    }

    /// Runs a SELECT that must not require the crowd. Fails with
    /// [`CrowdError::Unsupported`] if the chosen plan contains a crowd
    /// operator. Its observed pass rates feed the cost model, as
    /// [`Session::query_crowd`]'s do.
    pub fn query_machine(&self, sql: &str) -> Result<Vec<Vec<Value>>> {
        let select = match parse_statement(sql)? {
            Statement::Select(s) => s,
            _ => return Err(CrowdError::Semantic("expected a SELECT".into())),
        };
        struct NoTasks;
        impl TaskFactory for NoTasks {
            // The machine path never reaches a crowd operator (build
            // fails first), so these are never called.
            fn fill_task(&mut self, id: TaskId, _: &str, _: &[Value], column: &str) -> Task {
                Task::new(
                    id,
                    crowdkit_core::task::TaskKind::Fill {
                        attribute: column.to_owned(),
                    },
                    "unreachable",
                )
            }
            fn equal_task(&mut self, id: TaskId, _: &Value, _: &Value) -> Task {
                Task::binary(id, "unreachable")
            }
            fn compare_task(&mut self, id: TaskId, _: &Value, _: &Value) -> Task {
                Task::binary(id, "unreachable")
            }
        }
        let out = {
            let state = self.inner.read();
            let planned = plan_select(&state, &select, &QueryOpts::default(), true)?;
            execute(&planned.chosen, &state.catalog, None, &mut NoTasks)?
        };
        self.inner.write().learn(&out.observations);
        Ok(out.rows)
    }

    /// Runs a SELECT, buying crowd answers as the plan demands.
    ///
    /// `opts.optimize` selects between the optimized and the naive plan —
    /// experiment E10 runs both and compares actual spend against the
    /// optimizer's prediction ([`QueryStats::predicted_spend`]).
    pub fn query_crowd(
        &self,
        sql: &str,
        oracle: &dyn CrowdOracle,
        factory: &mut dyn TaskFactory,
        opts: &QueryOpts,
    ) -> Result<(Vec<Vec<Value>>, QueryStats)> {
        let select = match parse_statement(sql)? {
            Statement::Select(s) => s,
            _ => return Err(CrowdError::Semantic("expected a SELECT".into())),
        };
        let tel = obs::scope();
        let before = oracle.answers_delivered();
        let metered = RoundOracle::new(oracle, tel.capture_detail());
        let (out, predicted) = {
            let state = self.inner.read();
            let planned = plan_select(&state, &select, opts, opts.optimize)?;
            let out = execute(&planned.chosen, &state.catalog, Some(&metered), factory)?;
            (out, planned.predicted)
        };
        {
            // Persist purchased cells so later queries reuse them, and
            // feed observed pass-rates back into the cost model.
            let mut state = self.inner.write();
            for (table, row, col, value) in &out.writebacks {
                state.catalog.write_cell(table, *row, *col, value.clone())?;
            }
            state.learn(&out.observations);
        }
        let stats = QueryStats {
            questions: oracle.answers_delivered() - before,
            cells_filled: out.cells_filled,
            equal_checks: out.equal_checks,
            comparisons: out.comparisons,
            rows_out: out.rows.len(),
            rounds: metered.rounds(),
            spend: metered.spend(),
            predicted_spend: predicted.total.spend,
            predicted_rounds: predicted.total.rounds,
        };
        let rec = &tel.recorder;
        if rec.enabled() {
            for ns in &out.node_stats {
                rec.record(
                    Event::new("sql.node")
                        .str("node", ns.node)
                        .u64("rows_in", ns.rows_in)
                        .u64("rows_out", ns.rows_out)
                        .u64("questions", ns.questions)
                        .f64("spend", ns.spend),
                );
            }
            // Cross-layer cost ledger: spend attributed per plan node,
            // then per task / per worker from the metered oracle, all as
            // `prov.spend` events under provenance capture.
            if tel.capture_detail() {
                for ns in &out.node_stats {
                    rec.record(
                        Event::new("prov.spend")
                            .str("scope", "node")
                            .str("node", ns.node)
                            .f64("spend", ns.spend)
                            .u64("questions", ns.questions)
                            .detail(),
                    );
                }
                metered.emit_ledger(&**rec);
            }
            rec.record(
                Event::new("sql.query")
                    .u64("optimized", u64::from(opts.optimize))
                    .u64("questions", stats.questions)
                    .u64("cells_filled", stats.cells_filled)
                    .u64("equal_checks", stats.equal_checks)
                    .u64("comparisons", stats.comparisons)
                    .u64("rows_out", stats.rows_out as u64)
                    .u64("rounds", stats.rounds)
                    .f64("spend", stats.spend)
                    .f64("predicted_spend", stats.predicted_spend)
                    .f64("predicted_rounds", stats.predicted_rounds),
            );
        }
        Ok((out.rows, stats))
    }
}

/// A [`TaskFactory`] for simulations: renders prompts and attaches ground
/// truth pulled from caller-provided closures.
pub struct SimTaskFactory<TF, EF, CF>
where
    TF: FnMut(&str, &[Value], &str) -> String,
    EF: FnMut(&Value, &Value) -> bool,
    CF: FnMut(&Value, &Value) -> bool,
{
    /// Ground-truth fill value for `(table, row, column)`.
    pub fill_truth: TF,
    /// Ground-truth equality for `(left, right)`.
    pub equal_truth: EF,
    /// Ground truth "left ranks higher" for `(left, right)`.
    pub left_wins_truth: CF,
}

impl<TF, EF, CF> TaskFactory for SimTaskFactory<TF, EF, CF>
where
    TF: FnMut(&str, &[Value], &str) -> String,
    EF: FnMut(&Value, &Value) -> bool,
    CF: FnMut(&Value, &Value) -> bool,
{
    fn fill_task(&mut self, id: TaskId, table: &str, row: &[Value], column: &str) -> Task {
        use crowdkit_core::answer::AnswerValue;
        use crowdkit_core::task::TaskKind;
        let truth = (self.fill_truth)(table, row, column);
        Task::new(
            id,
            TaskKind::Fill {
                attribute: column.to_owned(),
            },
            format!("value of {column} for a row of {table}"),
        )
        .with_truth(AnswerValue::Text(truth))
    }

    fn equal_task(&mut self, id: TaskId, left: &Value, right: &Value) -> Task {
        use crowdkit_core::answer::AnswerValue;
        let same = (self.equal_truth)(left, right);
        Task::binary(
            id,
            format!(
                "is '{}' the same as '{}'?",
                left.display_raw(),
                right.display_raw()
            ),
        )
        .with_truth(AnswerValue::Choice(same as u32))
    }

    fn compare_task(&mut self, id: TaskId, left: &Value, right: &Value) -> Task {
        use crowdkit_core::answer::AnswerValue;
        use crowdkit_core::ids::ItemId;
        let left_wins = (self.left_wins_truth)(left, right);
        Task::pairwise(id, ItemId::new(0), ItemId::new(1)).with_truth(AnswerValue::Prefer(
            if left_wins {
                Preference::Left
            } else {
                Preference::Right
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::answer::Answer;
    use crowdkit_core::budget::Budget;
    use crowdkit_core::ids::WorkerId;

    /// Oracle answering every task per its attached truth.
    struct TruthfulOracle {
        budget: std::cell::RefCell<Budget>,
        delivered: std::cell::Cell<u64>,
    }

    impl TruthfulOracle {
        fn new(limit: f64) -> Self {
            Self {
                budget: std::cell::RefCell::new(Budget::new(limit)),
                delivered: std::cell::Cell::new(0),
            }
        }
    }

    impl CrowdOracle for TruthfulOracle {
        fn ask_one(&self, task: &Task) -> Result<Answer> {
            self.budget.borrow_mut().debit(1.0)?;
            let w = WorkerId::new(self.delivered.get());
            self.delivered.set(self.delivered.get() + 1);
            Ok(Answer::bare(task.id, w, task.truth.clone().unwrap()))
        }
        fn remaining_budget(&self) -> Option<f64> {
            Some(self.budget.borrow().remaining())
        }
        fn answers_delivered(&self) -> u64 {
            self.delivered.get()
        }
    }

    /// Categories ground truth keyed by product id (row[0]).
    fn factory() -> impl TaskFactory {
        SimTaskFactory {
            fill_truth: |_table: &str, row: &[Value], _col: &str| -> String {
                match row[0] {
                    Value::Int(i) if i % 2 == 0 => "phone".to_owned(),
                    _ => "laptop".to_owned(),
                }
            },
            equal_truth: |l: &Value, r: &Value| -> bool {
                // Semantic equality: case-insensitive text match.
                l.display_raw().eq_ignore_ascii_case(&r.display_raw())
            },
            left_wins_truth: |l: &Value, r: &Value| -> bool {
                // "Better" = lexicographically larger.
                l.display_raw() > r.display_raw()
            },
        }
    }

    fn session_with_products(n: i64) -> Session {
        let s = Session::new();
        s.execute_ddl("CREATE TABLE products (id INT, name TEXT, category CROWD TEXT)")
            .unwrap();
        for i in 0..n {
            s.execute_ddl(&format!(
                "INSERT INTO products VALUES ({i}, 'prod{i}', NULL)"
            ))
            .unwrap();
        }
        s
    }

    #[test]
    fn machine_query_end_to_end() {
        let s = session_with_products(5);
        let rows = s
            .query_machine("SELECT name FROM products WHERE id >= 3 ORDER BY id DESC")
            .unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::text("prod4")], vec![Value::text("prod3")]]
        );
    }

    #[test]
    fn machine_query_rejects_crowd_plans() {
        let s = session_with_products(2);
        let err = s
            .query_machine("SELECT * FROM products WHERE category = 'phone'")
            .unwrap_err();
        assert!(matches!(err, CrowdError::Unsupported(_)));
    }

    #[test]
    fn crowd_fill_answers_and_writes_back() {
        let s = session_with_products(4);
        let oracle = TruthfulOracle::new(1e9);
        let mut f = factory();
        let (rows, stats) = s
            .query_crowd(
                "SELECT name FROM products WHERE category = 'phone'",
                &oracle,
                &mut f,
                &QueryOpts::new().votes(3),
            )
            .unwrap();
        // Even ids are phones: 0, 2.
        assert_eq!(
            rows,
            vec![vec![Value::text("prod0")], vec![Value::text("prod2")]]
        );
        assert_eq!(stats.cells_filled, 4);
        assert_eq!(stats.questions, 12, "4 cells × 3 votes");
        assert_eq!(stats.rounds, 4, "one round-trip per cell without batching");
        // Write-back: rerunning the query costs nothing.
        let (_, stats2) = s
            .query_crowd(
                "SELECT name FROM products WHERE category = 'phone'",
                &oracle,
                &mut f,
                &QueryOpts::new().votes(3),
            )
            .unwrap();
        assert_eq!(stats2.questions, 0, "cells persisted in the catalog");
    }

    #[test]
    fn optimized_plan_cheaper_than_naive() {
        // Machine predicate keeps 2 of 8 rows; naive fills all 8.
        let run = |opts: QueryOpts| -> QueryStats {
            let s = session_with_products(8);
            let oracle = TruthfulOracle::new(1e9);
            let mut f = factory();
            let (_, stats) = s
                .query_crowd(
                    "SELECT category FROM products WHERE id >= 6",
                    &oracle,
                    &mut f,
                    &opts,
                )
                .unwrap();
            stats
        };
        let opt = run(QueryOpts::new().votes(3));
        let naive = run(QueryOpts::naive().votes(3));
        assert_eq!(opt.cells_filled, 2);
        assert_eq!(naive.cells_filled, 8);
        assert!(opt.questions < naive.questions);
        assert!(
            opt.predicted_spend <= naive.predicted_spend,
            "the optimizer never predicts the rewritten plan to cost more"
        );
    }

    #[test]
    fn crowdequal_join_finds_semantic_matches() {
        let s = Session::new();
        s.execute_ddl("CREATE TABLE a (name TEXT)").unwrap();
        s.execute_ddl("CREATE TABLE b (alias TEXT)").unwrap();
        s.execute_ddl("INSERT INTO a VALUES ('IPhone'), ('Galaxy')")
            .unwrap();
        s.execute_ddl("INSERT INTO b VALUES ('iphone'), ('pixel')")
            .unwrap();
        let oracle = TruthfulOracle::new(1e9);
        let mut f = factory();
        let (rows, stats) = s
            .query_crowd(
                "SELECT a.name, b.alias FROM a, b WHERE CROWDEQUAL(a.name, b.alias)",
                &oracle,
                &mut f,
                &QueryOpts::new().votes(3),
            )
            .unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::text("IPhone"), Value::text("iphone")]]
        );
        assert_eq!(stats.equal_checks, 4, "2×2 candidate pairs");
        // The optimizer forms a CrowdJoin operator for the cross-table
        // CROWDEQUAL.
        let plan = s
            .explain(
                "SELECT a.name, b.alias FROM a, b WHERE CROWDEQUAL(a.name, b.alias)",
                true,
            )
            .unwrap();
        assert!(plan.to_string().contains("CrowdJoin"), "{plan}");
    }

    #[test]
    fn crowd_sort_full_and_topk() {
        let s = Session::new();
        s.execute_ddl("CREATE TABLE t (name TEXT)").unwrap();
        s.execute_ddl("INSERT INTO t VALUES ('a'), ('d'), ('b'), ('c')")
            .unwrap();
        let oracle = TruthfulOracle::new(1e9);
        let mut f = factory();
        // Full sort: best-first = lexicographically descending.
        let (rows, stats) = s
            .query_crowd(
                "SELECT name FROM t ORDER BY CROWDORDER(name)",
                &oracle,
                &mut f,
                &QueryOpts::new().votes(1),
            )
            .unwrap();
        let names: Vec<String> = rows.iter().map(|r| r[0].display_raw()).collect();
        assert_eq!(names, vec!["d", "c", "b", "a"]);
        assert_eq!(stats.comparisons, 6, "full pairwise over 4 items");

        // Top-1 tournament asks fewer comparisons.
        let oracle2 = TruthfulOracle::new(1e9);
        let (rows, stats) = s
            .query_crowd(
                "SELECT name FROM t ORDER BY CROWDORDER(name) LIMIT 1",
                &oracle2,
                &mut f,
                &QueryOpts::new().votes(1),
            )
            .unwrap();
        assert_eq!(rows, vec![vec![Value::text("d")]]);
        assert_eq!(stats.comparisons, 3, "single-elimination over 4 items");
    }

    #[test]
    fn budget_exhaustion_surfaces_partial_results() {
        let s = session_with_products(4);
        let oracle = TruthfulOracle::new(5.0);
        let mut f = factory();
        let (_, stats) = s
            .query_crowd(
                "SELECT category FROM products",
                &oracle,
                &mut f,
                &QueryOpts::new().votes(3),
            )
            .unwrap();
        assert_eq!(stats.questions, 5, "spent exactly the budget");
        // Two cells fully reconciled (3+2 votes → the 2-vote one still
        // unanimous), remaining rows stay NULL but the query completes.
        assert_eq!(stats.rows_out, 4);
    }

    #[test]
    fn explain_renders_both_plans() {
        let s = session_with_products(1);
        let opt = s
            .explain("SELECT name FROM products WHERE id > 0", true)
            .unwrap();
        let naive = s
            .explain("SELECT name FROM products WHERE id > 0", false)
            .unwrap();
        assert!(!opt.to_string().contains("CrowdFill"));
        assert!(naive.to_string().contains("CrowdFill"));
        assert!(naive.rewrites.is_empty());
        assert!(opt.rewrites.iter().any(|r| r == "lazy-fill"), "{opt:?}");
        // The naive plan predicts a strictly positive spend (it fills),
        // the optimized plan predicts zero.
        assert!(naive.predicted.spend > 0.0);
        assert!(opt.predicted.spend == 0.0);
        // The detailed rendering carries both plans and the cost table.
        let detail = opt.detailed();
        assert!(detail.contains("logical plan:"), "{detail}");
        assert!(detail.contains("predicted:"), "{detail}");
    }

    #[test]
    fn ddl_errors_are_reported() {
        let s = Session::new();
        assert!(s.execute_ddl("SELECT 1 FROM t").is_err());
        assert!(s.execute_ddl("INSERT INTO missing VALUES (1)").is_err());
    }

    #[test]
    fn fill_parses_ints_for_int_columns() {
        let s = Session::new();
        s.execute_ddl("CREATE TABLE t (name TEXT, stars CROWD INT)")
            .unwrap();
        s.execute_ddl("INSERT INTO t VALUES ('x', NULL)").unwrap();
        let oracle = TruthfulOracle::new(1e9);
        let mut f = SimTaskFactory {
            fill_truth: |_: &str, _: &[Value], _: &str| "4".to_owned(),
            equal_truth: |_: &Value, _: &Value| false,
            left_wins_truth: |_: &Value, _: &Value| false,
        };
        let (rows, _) = s
            .query_crowd("SELECT stars FROM t", &oracle, &mut f, &QueryOpts::new())
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(4)]]);
    }

    #[test]
    fn batching_reduces_round_trips_not_results() {
        let run = |batch: usize| {
            let s = session_with_products(6);
            let oracle = TruthfulOracle::new(1e9);
            let mut f = factory();
            s.query_crowd(
                "SELECT name FROM products WHERE category = 'phone'",
                &oracle,
                &mut f,
                &QueryOpts::new().votes(3).batch(batch),
            )
            .unwrap()
        };
        let (rows_seq, stats_seq) = run(0);
        let (rows_batched, stats_batched) = run(3);
        assert_eq!(rows_seq, rows_batched, "batching never changes results");
        assert_eq!(stats_seq.questions, stats_batched.questions);
        assert_eq!(stats_seq.rounds, 6, "one round per cell");
        assert_eq!(stats_batched.rounds, 2, "6 cells / batch of 3");
    }

    #[test]
    fn selectivity_memory_improves_estimates_across_runs() {
        let s = session_with_products(8);
        let oracle = TruthfulOracle::new(1e9);
        let mut f = factory();
        // First run: the estimator only has default selectivities.
        let sql = "SELECT category FROM products WHERE id >= 6";
        let (_, first) = s
            .query_crowd(sql, &oracle, &mut f, &QueryOpts::new().votes(3))
            .unwrap();
        // Second run: the observed pass-rate (2/8) feeds the prediction.
        // Cells are already written back, so actual spend is zero, but
        // the *prediction* must now reflect the learned selectivity.
        let report = s.explain(sql, true).unwrap();
        assert!(
            (report.predicted.spend - first.predicted_spend).abs() > 1e-9,
            "selectivity feedback changes the prediction: {} vs {}",
            report.predicted.spend,
            first.predicted_spend
        );
    }

    #[test]
    fn machine_queries_feed_the_selectivity_memory_like_crowd_queries() {
        let predict = |s: &Session| {
            s.explain("SELECT category FROM products WHERE id < 10", true)
                .unwrap()
                .predicted
                .spend
        };
        let sql = "SELECT id FROM products WHERE id < 10";
        let machine = session_with_products(100);
        // The default selectivity of one third: 100 rows / 3 × 3 votes.
        assert!((predict(&machine) - 100.0).abs() < 1e-9);
        assert_eq!(machine.query_machine(sql).unwrap().len(), 10);

        let crowd = session_with_products(100);
        let oracle = TruthfulOracle::new(1e9);
        crowd
            .query_crowd(sql, &oracle, &mut factory(), &QueryOpts::new())
            .unwrap();
        // Both learned that "id < 10" passes 10 of 100 rows.
        assert!((predict(&crowd) - 30.0).abs() < 1e-9);
        assert_eq!(predict(&machine).to_bits(), predict(&crowd).to_bits());
    }

    #[test]
    fn early_exit_limit_feeds_back_only_the_rows_its_filter_tested() {
        let s = session_with_products(300);
        let oracle = TruthfulOracle::new(1e9);
        let mut f = factory();
        let opts = QueryOpts::new();
        let mut run = |sql: &str| s.query_crowd(sql, &oracle, &mut f, &opts).unwrap().0.len();
        // The LIMIT stops after three rows: the filter has tested three
        // rows and passed three, not 60 of 300.
        assert_eq!(run("SELECT id FROM products WHERE id < 60 LIMIT 3"), 3);
        assert_eq!(run("SELECT id FROM products WHERE id < 60"), 60);
        // "id < 60" has passed 63 of 303 rows, so the fill below is
        // predicted at 300 · 63/303 cells × 3 votes.
        let report = s
            .explain("SELECT category FROM products WHERE id < 60", true)
            .unwrap();
        assert_eq!(
            report.to_string(),
            "Project [category]\n  CrowdFill [products.category]\n    \
             MachineFilter [id < 60]\n      Scan products\n"
        );
        assert!(
            (report.predicted.spend - 187.128_712_871_287_1).abs() < 1e-9,
            "{report:?}"
        );
        assert!(
            (report.predicted.rounds - 62.376_237_623_762_37).abs() < 1e-9,
            "{report:?}"
        );
    }
}

#[cfg(test)]
mod count_tests {
    use super::*;
    use crowdkit_core::answer::Answer;
    use crowdkit_core::ids::WorkerId;

    struct TruthfulOracle {
        n: std::cell::Cell<u64>,
    }
    impl CrowdOracle for TruthfulOracle {
        fn ask_one(&self, task: &Task) -> Result<Answer> {
            self.n.set(self.n.get() + 1);
            Ok(Answer::bare(
                task.id,
                WorkerId::new(self.n.get()),
                task.truth.clone().unwrap(),
            ))
        }
        fn remaining_budget(&self) -> Option<f64> {
            None
        }
        fn answers_delivered(&self) -> u64 {
            self.n.get()
        }
    }

    fn session() -> Session {
        let s = Session::new();
        s.execute_ddl("CREATE TABLE t (id INT, tag CROWD TEXT)")
            .unwrap();
        for i in 0..10 {
            s.execute_ddl(&format!("INSERT INTO t VALUES ({i}, NULL)"))
                .unwrap();
        }
        s
    }

    #[test]
    fn count_star_machine_only() {
        let s = session();
        let rows = s
            .query_machine("SELECT COUNT(*) FROM t WHERE id >= 4")
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(6)]]);
        let all = s.query_machine("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(all, vec![vec![Value::Int(10)]]);
    }

    #[test]
    fn count_star_does_not_fill_crowd_columns_it_does_not_read() {
        let s = session();
        let plan = s
            .explain("SELECT COUNT(*) FROM t WHERE id > 2", true)
            .unwrap()
            .to_string();
        assert!(!plan.contains("CrowdFill"), "{plan}");
        assert!(plan.contains("CountStar"), "{plan}");
    }

    #[test]
    fn count_star_over_crowd_predicate() {
        let s = session();
        let oracle = TruthfulOracle {
            n: std::cell::Cell::new(0),
        };
        let mut f = SimTaskFactory {
            fill_truth: |_: &str, row: &[Value], _: &str| match row[0] {
                Value::Int(i) if i < 3 => "keep".to_owned(),
                _ => "drop".to_owned(),
            },
            equal_truth: |_: &Value, _: &Value| false,
            left_wins_truth: |_: &Value, _: &Value| false,
        };
        let (rows, stats) = s
            .query_crowd(
                "SELECT COUNT(*) FROM t WHERE tag = 'keep'",
                &oracle,
                &mut f,
                &QueryOpts::new().votes(3),
            )
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(3)]]);
        assert_eq!(stats.cells_filled, 10);
    }

    #[test]
    fn count_star_rejects_order_by_and_limit() {
        assert!(parse_statement("SELECT COUNT(*) FROM t ORDER BY id").is_err());
        assert!(parse_statement("SELECT COUNT(*) FROM t LIMIT 3").is_err());
        assert!(parse_statement("SELECT COUNT(*) FROM t").is_ok());
    }
}

#[cfg(test)]
mod hash_join_tests {
    use super::*;

    fn session() -> Session {
        let s = Session::new();
        s.execute_ddl("CREATE TABLE orders (oid INT, cust TEXT)")
            .unwrap();
        s.execute_ddl("CREATE TABLE custs (cname TEXT, city TEXT)")
            .unwrap();
        s.execute_ddl("INSERT INTO orders VALUES (1, 'ada'), (2, 'bob'), (3, 'ada'), (4, NULL)")
            .unwrap();
        s.execute_ddl(
            "INSERT INTO custs VALUES ('ada', 'paris'), ('bob', 'berlin'), ('cyd', 'rome')",
        )
        .unwrap();
        s
    }

    #[test]
    fn optimizer_promotes_equality_to_hash_join() {
        let s = session();
        let sql = "SELECT oid, city FROM orders, custs WHERE cust = cname AND oid >= 2";
        let opt = s.explain(sql, true).unwrap().to_string();
        assert!(opt.contains("HashJoin [cust = cname]"), "{opt}");
        assert!(!opt.contains("Join (cross)"), "{opt}");
        // The remaining machine predicate still filters the plan.
        assert!(opt.contains("MachineFilter [oid >= 2]"), "{opt}");
        // The naive plan keeps the cross product.
        let naive = s.explain(sql, false).unwrap().to_string();
        assert!(naive.contains("Join (cross)"), "{naive}");
    }

    #[test]
    fn hash_join_matches_cross_product_semantics() {
        let s = session();
        let sql = "SELECT oid, city FROM orders, custs WHERE cust = cname ORDER BY oid ASC";
        let rows = s.query_machine(sql).unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::text("paris")],
                vec![Value::Int(2), Value::text("berlin")],
                vec![Value::Int(3), Value::text("paris")],
            ],
            "NULL cust on order 4 never matches"
        );
    }

    #[test]
    fn hash_join_runs_without_any_crowd_context() {
        let s = session();
        // query_machine runs without an oracle; a crowd op would error.
        let rows = s
            .query_machine("SELECT COUNT(*) FROM orders, custs WHERE cust = cname")
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn qualified_equi_join_columns_resolve() {
        let s = session();
        let rows = s
            .query_machine(
                "SELECT orders.oid FROM orders, custs \
                 WHERE custs.cname = orders.cust AND custs.city = 'paris' ORDER BY oid ASC",
            )
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
    }

    #[test]
    fn same_table_equality_is_not_a_join() {
        let s = session();
        let plan = s
            .explain("SELECT oid FROM orders, custs WHERE cust = cust", true)
            .unwrap()
            .to_string();
        assert!(!plan.contains("HashJoin"), "{plan}");
    }
}
