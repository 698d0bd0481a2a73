//! # crowdkit-assign
//!
//! Task assignment and budget allocation: *which task should the next
//! answer be bought for?*
//!
//! Under a fixed budget, accuracy is decided by where the answers go.
//! The tutorial's task-assignment axis contrasts static redundancy
//! (everything gets `k` answers) with quality-aware policies that spend the
//! marginal answer where it most improves expected accuracy (QASCA-style).
//! This crate implements:
//!
//! * [`policy::RandomAssign`] — uniform random among unfinished tasks (the
//!   platform default, the baseline in every comparison);
//! * [`policy::RoundRobin`] — equalized redundancy;
//! * [`policy::EntropyGreedy`] — uncertainty sampling: buy for the task
//!   whose current vote posterior has the highest entropy;
//! * [`policy::ExpectedAccuracyGain`] — QASCA-flavoured: buy for the task
//!   with the largest expected gain in posterior accuracy from one more
//!   answer under an assumed worker accuracy.
//!
//! [`driver::run_assignment`] executes any policy against a
//! [`crowdkit_core::traits::CrowdOracle`] under a question budget and
//! returns the collected matrix, ready for truth inference. It buys in
//! waves, and a policy plans each wave in one
//! [`next_wave`](policy::AssignmentPolicy::next_wave) call: the scoring
//! policies score each open task once per wave and pick from a heap, so a
//! wave of `w` over `n` tasks costs O(n + w log n). Experiment E8 sweeps
//! the policies under identical budgets.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod policy;

pub use driver::{run_assignment, AssignmentOutcome};
pub use policy::{
    AssignState, AssignmentPolicy, EntropyGreedy, ExpectedAccuracyGain, RandomAssign, RoundRobin,
};
