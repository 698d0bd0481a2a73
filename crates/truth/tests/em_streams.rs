//! Pins the EM kernels' outputs and event streams. Dawid–Skene, one-coin
//! and GLAD run dense and with `FreezeConfig::sparse(1e-3)` on seeded
//! matrices: a small one at 1 thread, one large enough for the kernels to
//! fork at 1 and 2 threads (Dawid–Skene at k = 3 and at k = 2, the width
//! it compiles apart), and a long-tailed crowd whose workers mostly
//! answer once, at k = 2 and 3 and 1 thread; each run is digested over its
//! posterior bits, labels, worker quality, iteration count and convergence
//! flag, the model's own parameters (DS confusion matrices, GLAD abilities
//! and inverse difficulties), and the wall-free event stream it records
//! (`truth.iter`, `truth.freeze`, `truth.run` and the `prov.*` lineage). A
//! change to any kernel's arithmetic, its freezing decisions or its
//! telemetry fails here, not only as shifted experiment numerics.

use std::sync::Arc;

use crowdkit_core::ids::{TaskId, WorkerId};
use crowdkit_core::par;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::{InferenceResult, TruthInferencer};
use crowdkit_obs::{self as obs, JsonlRecorder, Scope};
use crowdkit_truth::em::EmConfig;
use crowdkit_truth::freeze::FreezeConfig;
use crowdkit_truth::glad::GladConfig;
use crowdkit_truth::{DawidSkene, Glad, OneCoinEm};

/// FNV-1a over everything a run hands back.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64s(&mut self, xs: &[f64]) {
        xs.iter().for_each(|x| self.u64(x.to_bits()));
    }

    fn result(&mut self, r: &InferenceResult) {
        r.posteriors.iter().for_each(|row| self.f64s(row));
        r.labels.iter().for_each(|&l| self.u64(u64::from(l)));
        self.f64s(r.worker_quality.as_deref().unwrap_or_default());
        self.u64(r.iterations as u64);
        self.u64(u64::from(r.converged));
    }
}

/// SplitMix64, so the matrices do not depend on any RNG crate's streams.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A `k`-label matrix of `480 * scale` tasks in two halves (shown for
/// `scale = 1`):
///
/// * tasks 0–239 form 24 blocks of 10, each answered by its own three
///   workers, who are right 97% of the time: the blocks settle within a
///   few iterations, so their tasks freeze early and their workers go
///   quiet (every task they answered is frozen) while
/// * tasks 240–479 are each answered by 5 of 40 shared workers, who range
///   from spammers (right 40% of the time) to 90% accurate and keep a
///   contested frontier iterating long after the blocks froze; their
///   abilities settle one by one, which is where GLAD pins them.
///
/// The shared workers are numbered from `1000 * scale`, above every block
/// worker.
fn matrix(seed: u64, k: u32, scale: u64) -> ResponseMatrix {
    let mut rng = SplitMix(seed);
    let mut m = ResponseMatrix::new(k as usize);
    let answer = |rng: &mut SplitMix, truth: u32, accuracy: f64| {
        if rng.unit() < accuracy {
            truth
        } else {
            (truth + 1 + rng.below(u64::from(k) - 1) as u32) % k
        }
    };
    let half = 240 * scale;
    for t in 0..half {
        let truth = rng.below(u64::from(k)) as u32;
        for j in 0..3 {
            let l = answer(&mut rng, truth, 0.97);
            m.push(TaskId::new(t), WorkerId::new(t / 10 * 3 + j), l)
                .unwrap();
        }
    }
    let accuracy = |w: u64| 0.4 + 0.5 * (w % 10) as f64 / 9.0;
    for t in half..2 * half {
        let truth = rng.below(u64::from(k)) as u32;
        let mut asked: Vec<u64> = Vec::new();
        while asked.len() < 5 {
            let w = rng.below(40);
            if !asked.contains(&w) {
                asked.push(w);
            }
        }
        for w in asked {
            let l = answer(&mut rng, truth, accuracy(w));
            m.push(TaskId::new(t), WorkerId::new(1000 * scale + w), l)
                .unwrap();
        }
    }
    m
}

/// A long-tailed `k`-label crowd of 400 tasks with 4 answers each, shaped
/// like an adaptive labelling job over a churned pool: 30% of answers come
/// from 40 regulars (right 40% to 90% of the time, as in [`matrix`]) and
/// the rest from a pool of 3,000 occasional workers (right 55% to 95% of
/// the time), most of whom answer once or twice and so give a strict
/// subset of the labels. It asserts that more than half of its workers
/// answer exactly once.
fn long_tail(seed: u64, k: u32) -> ResponseMatrix {
    let mut rng = SplitMix(seed);
    let mut m = ResponseMatrix::new(k as usize);
    for t in 0..400 {
        let truth = rng.below(u64::from(k)) as u32;
        let mut asked: Vec<u64> = Vec::new();
        while asked.len() < 4 {
            let w = if rng.unit() < 0.3 {
                rng.below(40)
            } else {
                40 + rng.below(3000)
            };
            if !asked.contains(&w) {
                asked.push(w);
            }
        }
        for w in asked {
            let accuracy = if w < 40 {
                0.4 + 0.5 * (w % 10) as f64 / 9.0
            } else {
                0.55 + 0.4 * (w % 17) as f64 / 16.0
            };
            let l = if rng.unit() < accuracy {
                truth
            } else {
                (truth + 1 + rng.below(u64::from(k) - 1) as u32) % k
            };
            m.push(TaskId::new(t), WorkerId::new(w), l).unwrap();
        }
    }
    let (w_off, _) = m.worker_csr();
    let once = w_off.windows(2).filter(|d| d[1] - d[0] == 1).count();
    assert!(
        once * 2 > m.num_workers(),
        "only {once} of {} workers answer once",
        m.num_workers()
    );
    m
}

/// Runs `infer` under a provenance-capturing scope whose recorder keeps
/// only deterministic fields. The digest covers what `infer` writes into
/// it (the model's parameters), the result it returns and the event
/// stream. Returns the digest and the stream.
fn run(infer: impl FnOnce(&mut Digest) -> InferenceResult) -> (u64, String) {
    let rec = Arc::new(JsonlRecorder::in_memory().with_wall(false));
    let scope = Scope {
        recorder: rec.clone(),
        provenance: true,
    };
    let mut digest = Digest::new();
    let r = obs::with_scope(scope, || infer(&mut digest));
    digest.result(&r);
    let stream = String::from_utf8(rec.take_bytes()).expect("utf-8 stream");
    digest.bytes(stream.as_bytes());
    (digest.0, stream)
}

/// The sparse runs must actually freeze: at least one `truth.freeze`
/// event, with tasks still active after it.
fn assert_froze_with_a_frontier(stream: &str) {
    let frontier = stream
        .lines()
        .filter(|l| l.starts_with("{\"key\":\"truth.freeze\""))
        .any(|l| !l.contains(",\"active\":0,"));
    assert!(frontier, "no task froze while others were still active");
}

/// Digests of one kernel over `[dense, sparse]` at 1 thread, each checked
/// against the same run at every width in `wide`. Widths are caps, so a
/// wide run must fork, or it would compare one thread with itself; and the
/// thread count must not move a single bit.
fn digests(wide: &[usize], run_one: impl Fn(FreezeConfig, usize) -> (u64, String)) -> [u64; 2] {
    [FreezeConfig::disabled(), FreezeConfig::sparse(1e-3)].map(|fz| {
        let (one, stream) = run_one(fz, 1);
        if fz.enabled() {
            assert_froze_with_a_frontier(&stream);
        }
        for &threads in wide {
            let forks = par::forks();
            let (d, _) = run_one(fz, threads);
            assert!(
                par::forks() > forks,
                "the {threads}-thread run never forked (freeze {fz:?})"
            );
            assert_eq!(one, d, "1 and {threads} threads differ (freeze {fz:?})");
        }
        one
    })
}

fn dawid_skene(m: &ResponseMatrix, wide: &[usize]) -> [u64; 2] {
    digests(wide, |fz, threads| {
        let ds = DawidSkene::with_config(EmConfig::default().with_threads(threads).with_freeze(fz));
        run(|d| {
            let (r, confusion) = ds.infer_full(m).expect("non-empty matrix");
            confusion.iter().flatten().for_each(|row| d.f64s(row));
            r
        })
    })
}

fn one_coin(m: &ResponseMatrix, wide: &[usize]) -> [u64; 2] {
    digests(wide, |fz, threads| {
        let zc = OneCoinEm::with_config(EmConfig::default().with_threads(threads).with_freeze(fz));
        run(|_| zc.infer(m).expect("non-empty matrix"))
    })
}

fn glad(m: &ResponseMatrix, wide: &[usize]) -> [u64; 2] {
    digests(wide, |fz, threads| {
        let glad = Glad::with_config(GladConfig::default().with_threads(threads).with_freeze(fz));
        run(|d| {
            let (r, params) = glad.infer_full(m).expect("non-empty matrix");
            d.f64s(&params.abilities);
            d.f64s(&params.inverse_difficulties);
            r
        })
    })
}

#[test]
fn dawid_skene_streams_are_pinned() {
    // Re-recorded when the E-step moved to probability space: each answer
    // multiplies its confusion column into the row, which is rescaled by
    // exact powers of two, instead of adding a table of logarithms; and
    // again when each confusion row gained one diagonal pseudo-answer
    // (`DawidSkene::DIAGONAL_PRIOR`), which moves every Dawid–Skene digest
    // in this file.
    assert_eq!(
        dawid_skene(&matrix(21, 3, 1), &[]),
        [0xE634_0FC8_D6D2_C8DF, 0x5E54_74B6_36F8_1A57]
    );
}

#[test]
fn one_coin_streams_are_pinned() {
    // Recorded while each kernel ran its own EM loop, before freezing
    // lost its recheck and thaw path.
    assert_eq!(
        one_coin(&matrix(22, 3, 1), &[]),
        [0x9B28_F6B2_B975_0765, 0x7278_75AA_8702_5B7E]
    );
}

#[test]
fn glad_streams_are_pinned() {
    // Re-recorded for two deliberate numeric changes: the M-step takes one
    // Fisher-scoring step per coordinate under Gaussian priors on α and b,
    // and a live worker's α step walks its frozen edges too; then the
    // E-step added each answer's clamped log-odds αβ instead of the logs
    // of s and (1 − s)/(k − 1).
    assert_eq!(
        glad(&matrix(23, 2, 1), &[]),
        [0x2985_A82C_EC05_EF05, 0x4C0C_0CD2_153B_FE13]
    );
}

// The large matrices hold 64 Ki `obs · k` or more, the least work the
// kernels fork for. Their digests were recorded at c5c3504, when an
// explicit width was used whatever the problem size; GLAD's was
// re-recorded when its E-step began adding clamped log-odds, and
// Dawid–Skene's when its E-step moved to probability space and when its
// confusion rows gained the diagonal prior.

#[test]
fn dawid_skene_streams_are_pinned_when_forked() {
    let m = matrix(31, 3, 12);
    assert!(m.num_observations() * 3 >= 64 * 1024);
    assert_eq!(
        dawid_skene(&m, &[2]),
        [0x53B3_4A64_5722_6E4C, 0xC169_36AF_7EF5_C199]
    );
}

/// Every labelling input the benchmark and the examples run is binary, so
/// Dawid–Skene's k = 2 path gets a forked pin of its own. Recorded at
/// 2aced11, before the binary rows moved into fixed-size arrays, and
/// re-recorded when the confusion rows gained the diagonal prior.
#[test]
fn dawid_skene_binary_streams_are_pinned_when_forked() {
    let m = matrix(34, 2, 18);
    assert!(m.num_observations() * 2 >= 64 * 1024);
    assert_eq!(
        dawid_skene(&m, &[2]),
        [0x204D_868E_2E66_4C17, 0xF649_08F0_9E52_9FE6]
    );
}

#[test]
fn one_coin_streams_are_pinned_when_forked() {
    let m = matrix(32, 3, 12);
    assert!(m.num_observations() * 3 >= 64 * 1024);
    assert_eq!(
        one_coin(&m, &[2]),
        [0x8697_736D_804F_D07B, 0xF1A6_6622_F091_6F72]
    );
}

#[test]
fn glad_streams_are_pinned_when_forked() {
    let m = matrix(33, 2, 18);
    assert!(m.num_observations() * 2 >= 64 * 1024);
    assert_eq!(
        glad(&m, &[2]),
        [0xBC58_6C39_063C_C091, 0xF0EF_2506_BD37_E2EA]
    );
}

// The long-tailed crowds: most workers answer once or twice, so a
// worker's confusion rows, ability and log terms rest on a strict subset
// of the labels. Recorded at f24dd91; GLAD's were re-recorded when its
// E-step began adding clamped log-odds, and Dawid–Skene's when its E-step
// moved to probability space and when its confusion rows gained the
// diagonal prior.

#[test]
fn dawid_skene_long_tail_streams_are_pinned() {
    assert_eq!(
        dawid_skene(&long_tail(41, 2), &[]),
        [0xD9C9_F603_BB6A_8917, 0x4187_3FA8_CB77_C6CB]
    );
    assert_eq!(
        dawid_skene(&long_tail(42, 3), &[]),
        [0x4D43_9C81_AEBF_3815, 0xC10A_2E57_1722_D627]
    );
}

#[test]
fn one_coin_long_tail_streams_are_pinned() {
    assert_eq!(
        one_coin(&long_tail(43, 2), &[]),
        [0xEC66_66D2_426D_06CC, 0xFCC4_4C03_F816_D5E4]
    );
    assert_eq!(
        one_coin(&long_tail(44, 3), &[]),
        [0x3255_1A15_059D_4486, 0x9103_2B11_8896_737D]
    );
}

#[test]
fn glad_long_tail_streams_are_pinned() {
    assert_eq!(
        glad(&long_tail(45, 2), &[]),
        [0xA43E_570C_E25A_C0B6, 0x4AF4_09E7_44FD_846E]
    );
    assert_eq!(
        glad(&long_tail(46, 3), &[]),
        [0x1411_C49F_46C5_CFA2, 0x8AD0_A051_0C68_32F8]
    );
}
