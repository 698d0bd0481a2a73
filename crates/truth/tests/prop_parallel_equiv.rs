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
//! A width is only a cap: the kernels fork once an iteration holds at
//! least 64 Ki `obs · k` of work (8 Ki edges for KOS) and stay on one
//! thread below that. So the thread-invariance properties run on
//! crowd-shaped matrices above the floor, each EM model both dense and
//! freezing, and fail unless their 2- and 8-thread runs forked.
//!
//! The sparse incremental E-step (convergence freezing) extends the
//! contract: for any freezing settings, the active-set worklist path must
//! match the dense-reference evaluation of the same semantics bit for bit,
//! including the worker-model entries the worklist path skips as
//! "recompute-would-be-identical". Those properties run on small matrices,
//! on one thread. They would hold trivially if nothing ever froze, so each
//! also counts the cases whose sparse run froze a task and fails unless at
//! least half did.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crowdkit_core::ids::{TaskId, WorkerId};
use crowdkit_core::par;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::{InferenceResult, TruthInferencer};
use crowdkit_obs::{self as obs, MemoryRecorder};
use crowdkit_truth::em::EmConfig;
use crowdkit_truth::freeze::FreezeConfig;
use crowdkit_truth::glad::GladConfig;
use crowdkit_truth::{DawidSkene, Glad, Kos, OneCoinEm};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// The least per-iteration work (`obs · k`, or 8 per KOS edge) the
/// kernels fork for.
const FORK_FLOOR: usize = 64 * 1024;

/// Crowd-shaped matrices over k labels with at least `FORK_FLOOR / k`
/// answers: each task is answered by 4 distinct workers out of 300, whose
/// accuracies spread from spammer (1/k) to 95%.
fn large_matrix_strategy(k: u32) -> impl Strategy<Value = ResponseMatrix> {
    (0u64..1 << 32, 0u64..256).prop_map(move |(seed, extra)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let accuracy: Vec<f64> = (0..300)
            .map(|_| rng.gen_range(1.0 / f64::from(k)..0.95))
            .collect();
        let tasks = (FORK_FLOOR as u64).div_ceil(4 * u64::from(k)) + extra;
        let mut m = ResponseMatrix::new(k as usize);
        for t in 0..tasks {
            let truth = rng.gen_range(0..k);
            let mut asked: Vec<u64> = Vec::with_capacity(4);
            while asked.len() < 4 {
                let w = rng.gen_range(0..300u64);
                if !asked.contains(&w) {
                    asked.push(w);
                }
            }
            for w in asked {
                let l = if rng.gen_bool(accuracy[w as usize]) {
                    truth
                } else {
                    (truth + rng.gen_range(1..k)) % k
                };
                m.push(TaskId::new(t), WorkerId::new(w), l).unwrap();
            }
        }
        m
    })
}

/// Runs `run(threads)` at widths 1, 2 and 8 and demands exact equality
/// with the single-threaded result. Widths are caps, so each wide run must
/// also have forked: one that did not would compare one thread with
/// itself.
fn assert_thread_invariant<R: PartialEq>(
    run: impl Fn(usize) -> R,
) -> std::result::Result<(), TestCaseError> {
    let reference = run(1);
    for threads in [2usize, 8] {
        let forks = par::forks();
        let r = run(threads);
        prop_assert!(
            par::forks() > forks,
            "the {}-thread run never forked",
            threads
        );
        prop_assert!(
            reference == r,
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

/// Cases per small-matrix property.
const CASES: u32 = 48;

/// Cases per above-floor property.
const LARGE_CASES: u32 = 3;

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

/// Runs `make(freeze).infer(m)` with the worklist path and the
/// dense-reference path and demands both results exactly equal: freezing
/// must change the cost of an iteration, never its outcome. Returns
/// whether the worklist path froze any task.
fn assert_sparse_matches_dense<F>(
    m: &ResponseMatrix,
    fz: FreezeConfig,
    make: F,
) -> std::result::Result<bool, TestCaseError>
where
    F: Fn(FreezeConfig) -> Box<dyn TruthInferencer>,
{
    let reference: InferenceResult = make(fz.with_dense_reference(true))
        .infer(m)
        .expect("non-empty matrix infers");
    let (sparse, froze) = recording_freezes(|| make(fz).infer(m));
    let sparse = sparse.expect("non-empty matrix infers");
    prop_assert_eq!(
        &reference,
        &sparse,
        "worklist path diverges from the dense reference"
    );
    Ok(froze)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(LARGE_CASES))]

    /// Binary and three-label matrices: Dawid–Skene compiles its steps
    /// for `k = 2` apart from every other width.
    #[test]
    fn dawid_skene_is_thread_invariant(
        m in prop_oneof![large_matrix_strategy(2), large_matrix_strategy(3)],
        fz in freeze_strategy(),
    ) {
        for fz in [FreezeConfig::disabled(), fz] {
            assert_thread_invariant(|t| {
                DawidSkene::with_config(EmConfig::default().with_threads(t).with_freeze(fz))
                    .infer_full(&m)
                    .expect("non-empty matrix infers")
            })?;
        }
    }

    #[test]
    fn one_coin_is_thread_invariant(
        m in large_matrix_strategy(3),
        fz in freeze_strategy(),
    ) {
        for fz in [FreezeConfig::disabled(), fz] {
            assert_thread_invariant(|t| {
                OneCoinEm::with_config(EmConfig::default().with_threads(t).with_freeze(fz))
                    .infer(&m)
                    .expect("non-empty matrix infers")
            })?;
        }
    }

    /// GLAD's fitted parameters must match too, not just its posteriors.
    #[test]
    fn glad_is_thread_invariant(
        m in large_matrix_strategy(2),
        fz in freeze_strategy(),
    ) {
        for fz in [FreezeConfig::disabled(), fz] {
            assert_thread_invariant(|t| {
                Glad::with_config(GladConfig::default().with_threads(t).with_freeze(fz))
                    .infer_full(&m)
                    .expect("non-empty matrix infers")
            })?;
        }
    }

    #[test]
    fn kos_is_thread_invariant(m in large_matrix_strategy(2)) {
        assert_thread_invariant(|t| {
            Kos::default().with_threads(t).infer(&m).expect("non-empty matrix infers")
        })?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn dawid_skene_sparse_matches_dense_reference(
        m in prop_oneof![matrix_strategy(2), matrix_strategy(3)],
        fz in freeze_strategy(),
    ) {
        static TALLY: FreezeTally = FreezeTally::new();
        let froze = assert_sparse_matches_dense(&m, fz, |fz| {
            Box::new(DawidSkene::with_config(EmConfig::default().with_freeze(fz)))
        })?;
        TALLY.record(froze)?;
    }

    #[test]
    fn one_coin_sparse_matches_dense_reference(
        m in matrix_strategy(3),
        fz in freeze_strategy(),
    ) {
        static TALLY: FreezeTally = FreezeTally::new();
        let froze = assert_sparse_matches_dense(&m, fz, |fz| {
            Box::new(OneCoinEm::with_config(EmConfig::default().with_freeze(fz)))
        })?;
        TALLY.record(froze)?;
    }

    #[test]
    fn glad_sparse_matches_dense_reference(
        m in matrix_strategy(2),
        fz in freeze_strategy(),
    ) {
        static TALLY: FreezeTally = FreezeTally::new();
        let froze = assert_sparse_matches_dense(&m, fz, |fz| {
            Box::new(Glad::with_config(GladConfig::default().with_freeze(fz)))
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
        let (r_ref, p_ref) = Glad::with_config(cfg.with_freeze(fz.with_dense_reference(true)))
            .infer_full(&m)
            .expect("non-empty matrix infers");
        let (out, froze) = recording_freezes(|| Glad::with_config(cfg.with_freeze(fz)).infer_full(&m));
        let (r, p) = out.expect("non-empty matrix infers");
        prop_assert_eq!(&r_ref, &r, "posteriors diverge");
        prop_assert_eq!(&p_ref, &p, "GLAD params diverge");
        TALLY.record(froze)?;
    }
}
