//! # crowdkit-sql
//!
//! CrowdSQL: a CrowdDB-flavoured declarative layer where SQL queries can
//! reference data and judgements only people can provide.
//!
//! CrowdDB (Franklin et al., 2011) extended SQL with three constructs,
//! all implemented here:
//!
//! * **CROWD columns** — `CREATE TABLE p (name TEXT, phone CROWD TEXT)`:
//!   the column may be `NULL` at query time and is *filled* by the crowd
//!   on demand, only for rows that survive the machine predicates.
//! * **`CROWDEQUAL(a, b)`** — crowd-verified equality ("are these two
//!   values the same thing?"), the predicate behind crowd joins.
//! * **`CROWDORDER(col)`** — crowd-provided ordering for subjective
//!   `ORDER BY`; with a `LIMIT k` the optimizer switches from a full
//!   pairwise sort to a top-k tournament.
//!
//! ## Pipeline
//!
//! ```text
//! SQL text ──lexer/parser──▶ AST
//!          ──binder──▶ canonical logical Plan   (names/types resolved)
//!          ──rewriter──▶ candidate plans        (rule-based transforms)
//!          ──cost model──▶ chosen plan          (spend/rounds/quality)
//!          ──Volcano executor──▶ rows           (crowd via CrowdOracle)
//! ```
//!
//! * [`binder`] resolves names and types against the [`Catalog`] and
//!   produces the canonical [`ir::Plan`] — eager fills, cross joins,
//!   machine-shaped but crowd-complete. Errors carry line/column.
//! * [`rewrite`] applies lazy fill, predicate pushdown, hash-join
//!   promotion, crowd-join formation/reordering, top-k fusion and
//!   batching, then picks the candidate the [`cost`] model scores
//!   cheapest.
//! * [`cost`] prices plans in a [`cost::CostVector`] (spend, platform
//!   round-trips, predicted quality) using per-predicate selectivities
//!   learned from previous queries ([`cost::SelectivityMemory`]).
//! * The executor is a pull-based (Volcano) operator tree; each operator
//!   reports per-node row and question counts through `crowdkit-obs`.
//!
//! The optimizer is where the money is: experiment E10 compares the
//! naive canonical plan against the optimized one and checks that the
//! *actual* spend tracks the *predicted* spend reported in
//! [`QueryStats`].
//!
//! ## Example
//!
//! ```
//! use crowdkit_sql::{QueryOpts, Session};
//!
//! let session = Session::new();
//! session.execute_ddl("CREATE TABLE items (id INT, name TEXT)").unwrap();
//! session
//!     .execute_ddl("INSERT INTO items VALUES (1, 'apple'), (2, 'pear')")
//!     .unwrap();
//! // Machine-only queries run without a crowd.
//! let rows = session
//!     .query_machine("SELECT name FROM items WHERE id >= 2")
//!     .unwrap();
//! assert_eq!(rows.len(), 1);
//! // EXPLAIN returns the chosen physical plan plus predicted cost.
//! let report = session
//!     .explain("SELECT name FROM items WHERE id >= 2", true)
//!     .unwrap();
//! assert!(report.predicted.spend == 0.0, "{report}");
//! let _ = QueryOpts::new().votes(5); // knobs for crowd queries
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod binder;
pub mod catalog;
pub mod cost;
pub mod exec;
pub mod ir;
pub mod lexer;
pub mod parser;
pub mod rewrite;
pub mod value;
mod volcano;

pub use binder::{bind, BoundCol, BoundQuery};
pub use catalog::{Catalog, ColumnDef, ColumnType, TableDef};
pub use cost::{CostVector, Estimator, NodeCost, PlanCost, SelectivityMemory};
pub use exec::{ExplainReport, QueryOpts, QueryStats, Session, SimTaskFactory, TaskFactory};
pub use ir::Plan;
pub use rewrite::{optimize, Rewritten};
pub use value::Value;
