//! `crowdkit-lint` — the workspace's determinism & safety static-analysis
//! pass.
//!
//! The reproducibility contract of this system — same seed, same answers,
//! same serialized JSONL stream at any thread count — was enforced only by
//! tests until two latent `HashMap`-iteration-order float-reduction bugs
//! shipped and were caught by accident (the PR 3 `e16` scoring and
//! `truth::numeric` fixes). This crate turns those conventions into
//! machine-checked rules: a token-level scanner (no external parser —
//! the workspace is offline-vendored) walks every `.rs` file under
//! `crates/` and `src/`, builds a workspace [symbol table](symbols) and
//! [call graph](callgraph) on top, and fails the build on any finding
//! that is neither fixed nor excused at its line by a reasoned
//! suppression.
//!
//! Per-file rules: [DET001] hash-ordered iteration where floats accumulate
//! or output is serialized, [DET002] wall-clock reads outside the obs
//! boundary, [PANIC001] `unwrap`/`expect`/`panic!` in non-test library
//! code, [SAFETY001] `unsafe` without `// SAFETY:`, [DOC001] missing
//! `//!` module docs and crate-root lint headers.
//!
//! Workspace rules: interprocedural [taint] chains for DET001/DET002
//! (a helper that *returns* a wall-clock or hash-ordered value marks its
//! callers transitively, with a printed witness chain down to the seed),
//! and the [CONC family](conc) — CONC001 lock-ordering cycles, CONC002
//! atomic `Ordering` audit, CONC003 guards held across crowd I/O or
//! lock-acquiring calls.
//!
//! See [`rules`] for rationale and [`engine`] for the suppression
//! protocol and its audit.
//!
//! Run it as `cargo run --release -p crowdkit-lint` (add `--json
//! LINT.json` for the machine-readable report, `--audit-suppressions` to
//! fail on allows that excuse nothing, `--rule ID` to filter).
//!
//! [DET001]: rules::ALL_RULES
//! [DET002]: rules::ALL_RULES
//! [PANIC001]: rules::ALL_RULES
//! [SAFETY001]: rules::ALL_RULES
//! [DOC001]: rules::ALL_RULES

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod callgraph;
pub mod conc;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod symbols;
pub mod taint;

pub use engine::{scan, scan_file, scan_paths, Config, Report};
pub use rules::Finding;
