//! # crowdkit-core
//!
//! Shared data model for the `crowdkit` crowdsourced data management system.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`ids`] — strongly-typed identifiers for tasks, workers and items.
//! * [`hash`] — a fixed integer hasher for maps keyed by one id.
//! * [`intern`] — dense `u32` interning of sparse external ids (the
//!   bridge from platform ids to flat-array kernel indices).
//! * [`label`] — categorical label spaces for classification tasks.
//! * [`task`] — the task model (`SingleChoice`, `Numeric`, `Pairwise`,
//!   `OpenText`, `Collection`, `Fill`).
//! * [`answer`] — worker answers and answer values.
//! * [`response`] — the dense response matrix consumed by truth-inference
//!   algorithms.
//! * [`traits`] — the extension points: [`traits::CrowdOracle`],
//!   [`traits::TruthInferencer`], [`traits::StoppingRule`].
//! * [`par`] — deterministic data-parallel primitives (the scoped-thread
//!   chunking pattern shared by the simulator and the inference kernels).
//! * [`budget`] — cost models and budgets.
//! * [`metrics`] — evaluation metrics (accuracy, F1, Kendall tau, cluster
//!   F1, MAE/RMSE, NDCG, entropy, …).
//! * [`error`] — the common error type.
//!
//! The crate is dependency-light by design; algorithm crates
//! (`crowdkit-truth`, `crowdkit-ops`, …) and the platform simulator
//! (`crowdkit-sim`) all build on top of it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod answer;
pub mod ask;
pub mod budget;
pub mod error;
pub mod hash;
pub mod ids;
pub mod intern;
pub mod label;
pub mod metrics;
pub mod par;
pub mod response;
pub mod task;
pub mod traits;

pub use answer::{Answer, AnswerValue, Preference};
pub use ask::{AskOutcome, AskRequest};
pub use budget::{Budget, CostModel};
pub use error::{CrowdError, Result};
pub use ids::{ItemId, TaskId, WorkerId};
pub use intern::IdInterner;
pub use label::LabelSpace;
pub use response::ResponseMatrix;
pub use task::{Task, TaskKind};
pub use traits::{CrowdOracle, InferenceResult, StoppingRule, TruthInferencer};
