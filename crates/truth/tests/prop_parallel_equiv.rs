//! Thread-count invariance: every parallel EM kernel must produce
//! *byte-identical* results at any worker-pool width.
//!
//! These are exact `==` comparisons on the full [`InferenceResult`] —
//! posteriors, labels, worker quality, and iteration counts — not
//! approximate float checks. The kernels earn this by partitioning work
//! over disjoint item ranges and keeping every cross-item reduction
//! sequential in fixed order, so chunk boundaries cannot perturb a single
//! bit of the output.
//!
//! The sparse incremental E-step (convergence freezing) extends the
//! contract: for any freezing settings, the active-set worklist path must
//! match the dense-reference evaluation of the same semantics bit for bit
//! — at 1, 2, and 8 threads — including the worker-model entries the
//! worklist path skips as "recompute-would-be-identical". Those
//! properties would hold trivially if nothing ever froze, so each also
//! counts the cases whose sparse run froze a task and fails unless at
//! least half did.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crowdkit_core::ids::{TaskId, WorkerId};
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::{InferenceResult, TruthInferencer};
use crowdkit_obs::{self as obs, MemoryRecorder};
use crowdkit_truth::em::EmConfig;
use crowdkit_truth::freeze::FreezeConfig;
use crowdkit_truth::glad::GladConfig;
use crowdkit_truth::{DawidSkene, Glad, Kos, OneCoinEm};
use proptest::prelude::*;

/// Arbitrary non-empty response matrices over k labels.
fn matrix_strategy(k: u32) -> impl Strategy<Value = ResponseMatrix> {
    prop::collection::vec((0u64..15, 0u64..8, 0..k), 1..120).prop_map(move |obs| {
        let mut m = ResponseMatrix::new(k as usize);
        for (t, w, l) in obs {
            m.push(TaskId::new(t), WorkerId::new(w), l).unwrap();
        }
        m
    })
}

/// Runs `make(threads).infer(m)` at widths 1, 2, and 8 and demands exact
/// equality with the single-threaded result.
fn assert_thread_invariant<F>(m: &ResponseMatrix, make: F) -> std::result::Result<(), TestCaseError>
where
    F: Fn(usize) -> Box<dyn TruthInferencer>,
{
    let reference: InferenceResult = make(1).infer(m).expect("non-empty matrix infers");
    for threads in [2usize, 8] {
        let r = make(threads).infer(m).expect("non-empty matrix infers");
        prop_assert_eq!(
            &reference,
            &r,
            "results diverge between 1 and {} threads",
            threads
        );
    }
    Ok(())
}

/// Arbitrary enabled freezing settings: tolerances loose enough to
/// actually freeze tasks on small matrices.
fn freeze_strategy() -> impl Strategy<Value = FreezeConfig> {
    prop_oneof![Just(1e-4f64), Just(1e-3), Just(1e-2)].prop_map(FreezeConfig::sparse)
}

/// Cases per property.
const CASES: u32 = 48;

/// Counts, for one sparse-vs-dense property, the cases whose sparse run
/// froze a task. The property's last case fails unless at least half of
/// its cases did, so the equality cannot pass just because nothing froze.
struct FreezeTally {
    cases: AtomicU32,
    froze: AtomicU32,
}

impl FreezeTally {
    const fn new() -> Self {
        Self {
            cases: AtomicU32::new(0),
            froze: AtomicU32::new(0),
        }
    }

    fn record(&self, froze: bool) -> std::result::Result<(), TestCaseError> {
        let froze = self.froze.fetch_add(u32::from(froze), Ordering::Relaxed) + u32::from(froze);
        let cases = self.cases.fetch_add(1, Ordering::Relaxed) + 1;
        if cases == CASES {
            prop_assert!(
                2 * froze >= cases,
                "only {} of {} sparse runs froze a task",
                froze,
                cases
            );
        }
        Ok(())
    }
}

/// Runs `infer` under a memory recorder and reports whether it recorded
/// a `truth.freeze` event, i.e. froze at least one task.
fn recording_freezes<R>(infer: impl FnOnce() -> R) -> (R, bool) {
    let rec = Arc::new(MemoryRecorder::new());
    let r = obs::with_recorder(rec.clone(), infer);
    (r, rec.count("truth.freeze") > 0)
}

/// Runs `make(threads, freeze).infer(m)` with the worklist path and the
/// dense-reference path at widths 1, 2, and 8 and demands all six results
/// exactly equal: freezing must change the cost of an iteration, never
/// its outcome. Returns whether the worklist path froze any task.
fn assert_sparse_matches_dense<F>(
    m: &ResponseMatrix,
    fz: FreezeConfig,
    make: F,
) -> std::result::Result<bool, TestCaseError>
where
    F: Fn(usize, FreezeConfig) -> Box<dyn TruthInferencer>,
{
    let reference: InferenceResult = make(1, fz.with_dense_reference(true))
        .infer(m)
        .expect("non-empty matrix infers");
    let mut froze = false;
    for threads in [1usize, 2, 8] {
        let (sparse, f) = recording_freezes(|| make(threads, fz).infer(m));
        let sparse = sparse.expect("non-empty matrix infers");
        froze |= f;
        prop_assert_eq!(
            &reference,
            &sparse,
            "worklist path diverges from the dense reference at {} threads",
            threads
        );
        let dense = make(threads, fz.with_dense_reference(true))
            .infer(m)
            .expect("non-empty matrix infers");
        prop_assert_eq!(
            &reference,
            &dense,
            "dense reference is not thread-invariant at {} threads",
            threads
        );
    }
    Ok(froze)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn dawid_skene_is_thread_invariant(m in matrix_strategy(3)) {
        assert_thread_invariant(&m, |t| {
            Box::new(DawidSkene::with_config(EmConfig::default().with_threads(t)))
        })?;
    }

    #[test]
    fn one_coin_is_thread_invariant(m in matrix_strategy(3)) {
        assert_thread_invariant(&m, |t| {
            Box::new(OneCoinEm::with_config(EmConfig::default().with_threads(t)))
        })?;
    }

    #[test]
    fn glad_is_thread_invariant(m in matrix_strategy(2)) {
        assert_thread_invariant(&m, |t| {
            Box::new(Glad::with_config(GladConfig::default().with_threads(t)))
        })?;
    }

    #[test]
    fn kos_is_thread_invariant(m in matrix_strategy(2)) {
        assert_thread_invariant(&m, |t| Box::new(Kos::default().with_threads(t)))?;
    }

    #[test]
    fn dawid_skene_sparse_matches_dense_reference(
        m in matrix_strategy(3),
        fz in freeze_strategy(),
    ) {
        static TALLY: FreezeTally = FreezeTally::new();
        let froze = assert_sparse_matches_dense(&m, fz, |t, fz| {
            Box::new(DawidSkene::with_config(
                EmConfig::default().with_threads(t).with_freeze(fz),
            ))
        })?;
        TALLY.record(froze)?;
    }

    #[test]
    fn one_coin_sparse_matches_dense_reference(
        m in matrix_strategy(3),
        fz in freeze_strategy(),
    ) {
        static TALLY: FreezeTally = FreezeTally::new();
        let froze = assert_sparse_matches_dense(&m, fz, |t, fz| {
            Box::new(OneCoinEm::with_config(
                EmConfig::default().with_threads(t).with_freeze(fz),
            ))
        })?;
        TALLY.record(froze)?;
    }

    #[test]
    fn glad_sparse_matches_dense_reference(
        m in matrix_strategy(2),
        fz in freeze_strategy(),
    ) {
        static TALLY: FreezeTally = FreezeTally::new();
        let froze = assert_sparse_matches_dense(&m, fz, |t, fz| {
            Box::new(Glad::with_config(
                GladConfig::default().with_threads(t).with_freeze(fz),
            ))
        })?;
        TALLY.record(froze)?;
    }

    /// GLAD's freezing semantics also pin the fitted parameters — the
    /// worklist and dense-reference paths must agree on α and β exactly,
    /// not just on posteriors.
    #[test]
    fn glad_sparse_params_match_dense_reference(
        m in matrix_strategy(2),
        fz in freeze_strategy(),
    ) {
        static TALLY: FreezeTally = FreezeTally::new();
        let cfg = GladConfig::default();
        let (r_ref, p_ref) = Glad::with_config(
            cfg.with_threads(1).with_freeze(fz.with_dense_reference(true)),
        )
        .infer_full(&m)
        .expect("non-empty matrix infers");
        let mut froze = false;
        for threads in [1usize, 2, 8] {
            let (out, f) = recording_freezes(|| {
                Glad::with_config(cfg.with_threads(threads).with_freeze(fz)).infer_full(&m)
            });
            let (r, p) = out.expect("non-empty matrix infers");
            froze |= f;
            prop_assert_eq!(&r_ref, &r, "posteriors diverge at {} threads", threads);
            prop_assert_eq!(&p_ref, &p, "GLAD params diverge at {} threads", threads);
        }
        TALLY.record(froze)?;
    }
}
