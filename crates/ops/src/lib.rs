//! # crowdkit-ops
//!
//! Crowd-powered query operators — the tutorial's operator axis, one module
//! per operator family:
//!
//! * [`filter`] — crowd selection (`WHERE crowd_predicate(item)`) with
//!   adaptive per-item stopping.
//! * [`join`] — crowd join / entity resolution: similarity blocking, crowd
//!   pair verification, and transitivity-based answer deduction.
//! * [`sort`] — sort / top-k / max from noisy pairwise comparisons, with
//!   Borda, Copeland, Elo and Bradley–Terry rank aggregation and
//!   tournament max.
//! * [`agg`] — sampling-based COUNT/SUM estimation with confidence
//!   intervals.
//! * [`collect`] — open-world enumeration with species-richness estimation
//!   (Good–Turing coverage, Chao1/Chao92).
//! * [`fill`] — missing-cell completion by normalized plurality.
//! * [`categorize`] — taxonomy placement with hierarchy-aware voting.
//! * [`reconcile`] — the single answer reconciliation (normalized
//!   plurality, yes/no majority) shared by these operators, the CrowdSQL
//!   executor and the crowd-Datalog resolver.
//!
//! Every operator buys its answers exclusively through
//! [`crowdkit_core::traits::CrowdOracle`] and reports what it spent, so
//! experiments compare operators on *crowd questions asked* — the metric
//! the cost-control literature optimizes. A short delivery is judged by
//! the one shortfall policy, [`AskOutcome::check`](crowdkit_core::ask::AskOutcome::check):
//! exhaustion keeps what was bought, anything else is an error.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod agg;
pub mod categorize;
pub mod collect;
pub mod fill;
pub mod filter;
pub mod join;
pub mod reconcile;
pub mod sort;
