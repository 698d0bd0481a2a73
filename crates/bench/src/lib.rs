//! # crowdkit-bench
//!
//! The experiment harness: one module per experiment in DESIGN.md's
//! per-experiment index (E1–E12), each regenerating a table or figure
//! series from the crowdsourced-data-management literature on top of the
//! crowdkit stack.
//!
//! Run them through the `experiments` binary:
//!
//! ```sh
//! cargo run --release -p crowdkit-bench --bin experiments -- all
//! cargo run --release -p crowdkit-bench --bin experiments -- e3
//! ```
//!
//! Every experiment prints an aligned table to stdout *and* returns its
//! rows as structured data so the tests and EXPERIMENTS.md tooling reuse
//! the same code path.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;

pub use experiments::{run_all, run_by_name, run_with_report, SuiteRun, EXPERIMENTS};
