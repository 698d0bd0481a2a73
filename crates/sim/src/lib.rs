//! # crowdkit-sim
//!
//! A deterministic crowdsourcing-platform simulator.
//!
//! Published crowdsourced-data-management evaluations run against live
//! platforms (Amazon Mechanical Turk, CrowdFlower). This crate is the
//! substitution: a seedable, discrete-event platform whose workers follow
//! the statistical models the literature itself uses to describe crowds
//! (fixed-accuracy workers, confusion matrices, GLAD ability/difficulty,
//! spammers, adversaries). Every algorithm in the stack consumes answers
//! only through [`crowdkit_core::traits::CrowdOracle`], which
//! [`platform::SimulatedCrowd`] implements, so code runs unmodified whether
//! the crowd is simulated or real.
//!
//! Modules:
//!
//! * [`worker`] — per-worker answer-generation models.
//! * [`population`] — building worker pools from mixes.
//! * [`latency`] — latency distributions and the round/straggler simulator.
//! * [`platform`] — the [`platform::SimulatedCrowd`] oracle.
//! * [`exec`] — per-assignment seed derivation, which keeps batched
//!   answers identical at any thread count.
//! * [`dataset`] — synthetic ground-truth dataset generators for every
//!   experiment family (labeling, entity resolution, ranking, open-world
//!   collection, numeric estimation).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod exec;
pub mod latency;
pub mod platform;
pub mod population;
pub mod worker;

pub use platform::{Churn, PlatformBuilder, Qualification, SimulatedCrowd};
pub use population::{Population, PopulationBuilder};
pub use worker::{WorkerModel, WorkerProfile};
