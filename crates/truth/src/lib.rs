//! # crowdkit-truth
//!
//! Truth inference: turning redundant, noisy crowd answers into one
//! estimated truth per task, with calibrated posteriors and worker-quality
//! estimates.
//!
//! This crate implements the canonical algorithm families surveyed by the
//! SIGMOD 2017 tutorial on crowdsourced data management:
//!
//! | Algorithm | Worker model | Module |
//! |---|---|---|
//! | Majority vote | none | [`mv`] |
//! | Weighted majority vote | externally supplied weights | [`mv`] |
//! | One-coin EM (ZenCrowd-style) | single reliability per worker | [`one_coin`] |
//! | Dawid–Skene EM | full confusion matrix per worker | [`dawid_skene`] |
//! | GLAD | worker ability × task difficulty | [`glad`] |
//! | KOS message passing | binary spectral-style iteration | [`kos`] |
//! | Numeric aggregation | bias/variance models | [`numeric`] |
//!
//! All categorical algorithms implement
//! [`crowdkit_core::traits::TruthInferencer`] over a
//! [`crowdkit_core::response::ResponseMatrix`], so experiments swap them
//! freely. [`sequential`] provides the stopping rules used for cost control
//! (fixed-k, majority margin, SPRT), and [`pipeline`] the collect-then-infer
//! driver shared by examples and experiments.
//!
//! One-coin, Dawid–Skene and GLAD are worker models run by one EM loop,
//! the driver in [`em`], which owns initialization, priors, convergence,
//! freezing, lineage and telemetry for all three.
//!
//! The EM kernels scale to million-task workloads via the sparse
//! incremental E-step in [`freeze`]: tasks whose posteriors stop moving
//! are frozen out of the per-iteration worklist for the rest of the run
//! (see `DESIGN.md` §11). Freezing is off by default and the dense
//! behaviour is reproduced bit for bit.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod dawid_skene;
pub mod em;
pub mod freeze;
pub mod glad;
pub mod gold;
pub mod kos;
mod lineage;
pub mod mv;
pub mod numeric;
pub mod one_coin;
pub mod pipeline;
pub mod sequential;

pub use dawid_skene::DawidSkene;
pub use freeze::FreezeConfig;
pub use glad::Glad;
pub use gold::{GoldSet, GoldWeightedVote};
pub use kos::Kos;
pub use mv::{MajorityVote, WeightedMajorityVote};
pub use one_coin::OneCoinEm;
pub use sequential::{FixedK, MajorityMargin, Sprt};
