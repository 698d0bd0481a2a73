// crowdkit-lint: allow-file(PANIC001) — bench harness: inputs are self-generated and fail-fast on violated invariants is the correct idiom
// crowdkit-lint: allow-file(DET002) — bench harness: timing wall clock is what this binary is for
//! `bench_scale` — the million-scale truth-inference macrobench.
//!
//! Synthesizes a large sparse labeling workload directly into a
//! [`ResponseMatrix`] (no `SimulatedCrowd` machinery — at 10M observations
//! the generator itself must be a few hundred ms) and times full
//! `infer` runs of the EM-family algorithms, each as a pair of twins:
//!
//! * `ds` / `zc` / `glad` — freezing enabled ([`FreezeConfig::sparse`]),
//!   the sparse incremental E-step this bench exists to measure;
//! * `ds_dense` / `zc_dense` / `glad_dense` — freezing disabled, the
//!   pre-freezing dense kernels, the in-run baseline of each sparse arm;
//! * `kos` — message passing has no posterior-freezing analogue, so it
//!   runs alone, as the non-EM reference point.
//!
//! The two arms of a pair are sampled interleaved (dense, sparse, dense,
//! …), so a slow spell of the host hits both alike. Each arm reports its
//! median ns per full `infer` run, its iterations and ns per iteration;
//! each pair reports its speedup, the median over samples of dense ns over
//! sparse ns. The run exits nonzero when a pair's speedup falls under its
//! floor ([`PAIRS`]), so the check needs no stored baseline. The last line
//! is the process peak RSS (`VmHWM`) over the whole run.
//!
//! The workload is a pure function of its tier's seed (splitmix64
//! throughout): binary labels so KOS participates, external task/worker
//! ids deliberately sparse (large odd-stride multiples) so the run
//! exercises the `IdInterner` dense-mapping path rather than identity ids.
//!
//! ```sh
//! cargo run --release -p crowdkit-bench --bin bench_scale -- smoke
//! cargo run --release -p crowdkit-bench --bin bench_scale -- full
//! ```

use crowdkit_core::ids::{TaskId, WorkerId};
use crowdkit_core::par::default_threads;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::TruthInferencer;
use crowdkit_truth::em::EmConfig;
use crowdkit_truth::glad::GladConfig;
use crowdkit_truth::{DawidSkene, FreezeConfig, Glad, Kos, OneCoinEm};
use std::process::ExitCode;
use std::time::Instant;

/// Freeze tolerance for the sparse variants: loose enough that settled
/// tasks leave the worklist (and settled GLAD abilities pin) within a
/// few sweeps. 1e-3 is the documented speed/fidelity knob setting —
/// label preservation at this tolerance is pinned by the truth crate's
/// freezing unit tests.
const FREEZE_EPS: f64 = 1e-3;

/// Each sparse/dense pair and the floor its speedup must reach: at most
/// half the smallest speedup the pair read over ten smoke runs on a
/// 2-vCPU host (DS 8.17×, one-coin 3.90×, GLAD 2.55×).
const PAIRS: [(&str, f64); 3] = [("ds", 4.0), ("zc", 1.9), ("glad", 1.2)];

/// A workload tier: its shape and seed, and per arm `warmup` untimed
/// runs before `samples` timed ones.
struct Workload {
    tasks: u64,
    workers: u64,
    responses: u64,
    seed: u64,
    warmup: usize,
    samples: usize,
}

const SMOKE: Workload = Workload {
    tasks: 10_000,
    workers: 1_000,
    responses: 100_000,
    seed: 0xC0FFEE,
    warmup: 1,
    samples: 9,
};

const FULL: Workload = Workload {
    tasks: 1_000_000,
    workers: 100_000,
    responses: 10_000_000,
    seed: 0xC0FFEE,
    warmup: 0,
    samples: 1,
};

/// The standard splitmix64 stepper: the whole workload derives from it.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One stateless draw: hash of `(seed, stream, index)`.
fn draw(seed: u64, stream: u64, index: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F) ^ index;
    splitmix64(&mut s)
}

/// Uniform f64 in [0, 1) from the top 53 bits of a draw.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Builds the seeded workload. Tasks are dealt round-robin so every task
/// gets `responses / tasks` votes; workers are drawn uniformly. External
/// ids stride by large odd constants so the dense interner does real work.
fn workload(w: &Workload) -> ResponseMatrix {
    let mut m = ResponseMatrix::new(2);
    for i in 0..w.responses {
        let t = i % w.tasks;
        let wk = draw(w.seed, 1, i) % w.workers;
        let truth = (draw(w.seed, 2, t) & 1) as u32;
        // Worker accuracy in [0.55, 0.95): everyone better than chance,
        // nobody perfect, so EM has real inference to do.
        let acc = 0.55 + 0.4 * unit(draw(w.seed, 3, wk));
        let correct = unit(draw(w.seed, 4, i)) < acc;
        let label = if correct { truth } else { 1 - truth };
        m.push(
            TaskId::new(t.wrapping_mul(2_654_435_761).wrapping_add(17)),
            WorkerId::new(wk.wrapping_mul(40_503).wrapping_add(101)),
            label,
        )
        .expect("binary label in range");
    }
    m
}

/// One timed `infer` run: wall ns and the iterations it took.
fn run_once(algo: &dyn TruthInferencer, m: &ResponseMatrix) -> (u64, usize) {
    let start = Instant::now();
    let result = algo.infer(std::hint::black_box(m)).unwrap();
    let ns = start.elapsed().as_nanos() as u64;
    (ns, std::hint::black_box(result).iterations)
}

fn median<T: Copy + PartialOrd>(mut xs: Vec<T>) -> T {
    xs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    xs[xs.len() / 2]
}

/// One arm's median ns per full `infer` run and its iteration count
/// (the kernels are deterministic, so every sample takes the same).
struct ArmTiming {
    ns_per_run: u64,
    iters: usize,
}

impl ArmTiming {
    fn from_samples(samples: Vec<(u64, usize)>) -> Self {
        Self {
            iters: samples[0].1,
            ns_per_run: median(samples.into_iter().map(|(ns, _)| ns).collect()),
        }
    }

    fn ns_per_iter(&self) -> u64 {
        self.ns_per_run / self.iters.max(1) as u64
    }

    fn print(&self, name: &str) {
        println!(
            "{name:<10} {:>12} ns/run {:>5} iters {:>12} ns/iter",
            self.ns_per_run,
            self.iters,
            self.ns_per_iter()
        );
    }
}

/// A sparse/dense pair's result and the floor its speedup must reach.
struct PairTiming {
    algo: &'static str,
    floor: f64,
    /// Median over samples of dense ns over the adjacent sparse ns.
    speedup: f64,
}

/// Times one pair with interleaved samples (dense, sparse, dense, …).
fn time_pair(
    dense: &dyn TruthInferencer,
    sparse: &dyn TruthInferencer,
    m: &ResponseMatrix,
    w: &Workload,
) -> (ArmTiming, ArmTiming, f64) {
    for _ in 0..w.warmup {
        run_once(dense, m);
        run_once(sparse, m);
    }
    let (d, s): (Vec<_>, Vec<_>) = (0..w.samples)
        .map(|_| (run_once(dense, m), run_once(sparse, m)))
        .unzip();
    let speedup = median(
        d.iter()
            .zip(&s)
            .map(|(d, s)| d.0 as f64 / s.0.max(1) as f64)
            .collect(),
    );
    (
        ArmTiming::from_samples(d),
        ArmTiming::from_samples(s),
        speedup,
    )
}

/// `Err` naming every pair whose speedup fell under its floor.
fn check_floors(pairs: &[PairTiming]) -> Result<(), String> {
    let under: Vec<String> = pairs
        .iter()
        .filter(|p| p.speedup < p.floor)
        .map(|p| {
            format!(
                "{}: sparse speedup {:.2}x is under its {:.1}x floor",
                p.algo, p.speedup, p.floor
            )
        })
        .collect();
    if under.is_empty() {
        Ok(())
    } else {
        Err(under.join("; "))
    }
}

/// Extracts the `VmHWM` high-water mark (in bytes) from the text of
/// `/proc/self/status`. Returns `None` for any shape the platform might
/// hand us short of the Linux format — missing line, missing value,
/// non-numeric kB count — so the bench degrades to "not measured" instead
/// of erroring on non-Linux or restricted environments.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Process peak RSS in bytes from `/proc/self/status` `VmHWM`, when the
/// platform provides it.
fn peak_rss_bytes() -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, w) = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] | ["smoke"] => ("smoke", SMOKE),
        ["full"] => ("full", FULL),
        _ => {
            eprintln!("usage: bench_scale [smoke|full]");
            return ExitCode::from(2);
        }
    };

    let gen_start = Instant::now();
    let m = workload(&w);
    println!(
        "workload[{mode}]: {} tasks, {} workers, {} observations (seed {:#x}) in {:.1} ms, {} threads",
        m.num_tasks(),
        m.num_workers(),
        m.num_observations(),
        w.seed,
        gen_start.elapsed().as_secs_f64() * 1e3,
        default_threads()
    );

    let sparse = FreezeConfig::sparse(FREEZE_EPS);
    let em_sparse = EmConfig::default().with_freeze(sparse);
    // (dense, sparse) per pair, in `PAIRS` order.
    let twins: [(Box<dyn TruthInferencer>, Box<dyn TruthInferencer>); 3] = [
        (
            Box::new(DawidSkene::default()),
            Box::new(DawidSkene::with_config(em_sparse)),
        ),
        (
            Box::new(OneCoinEm::default()),
            Box::new(OneCoinEm::with_config(em_sparse)),
        ),
        (
            Box::new(Glad::default()),
            Box::new(Glad::with_config(GladConfig::default().with_freeze(sparse))),
        ),
    ];
    let mut pairs = Vec::new();
    for ((algo, floor), (dense, sparse)) in PAIRS.into_iter().zip(&twins) {
        let (d, s, speedup) = time_pair(dense.as_ref(), sparse.as_ref(), &m, &w);
        d.print(&format!("{algo}_dense"));
        s.print(algo);
        println!("{algo:<10} sparse speedup {speedup:.2}x (floor {floor:.1}x)");
        pairs.push(PairTiming {
            algo,
            floor,
            speedup,
        });
    }
    let kos = Kos::default();
    for _ in 0..w.warmup {
        run_once(&kos, &m);
    }
    ArmTiming::from_samples((0..w.samples).map(|_| run_once(&kos, &m)).collect()).print("kos");

    match peak_rss_bytes() {
        Some(b) => println!("peak_rss   {b} bytes (process VmHWM over the whole run)"),
        None => println!("peak_rss   n/a"),
    }
    match check_floors(&pairs) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_scale: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(algo: &'static str, floor: f64, speedup: f64) -> PairTiming {
        PairTiming {
            algo,
            floor,
            speedup,
        }
    }

    #[test]
    fn a_pair_under_its_floor_fails_and_is_named() {
        assert_eq!(
            check_floors(&[pair("ds", 4.0, 8.0), pair("zc", 1.9, 1.9)]),
            Ok(())
        );
        let err = check_floors(&[pair("ds", 4.0, 8.0), pair("glad", 1.2, 1.1)]).unwrap_err();
        assert!(err.starts_with("glad:"), "{err}");
        assert!(!err.contains("ds:"), "{err}");
    }

    #[test]
    fn vm_hwm_parses_the_linux_status_format() {
        let status = "Name:\tbench_scale\nVmPeak:\t  201000 kB\nVmHWM:\t  102400 kB\nThreads:\t8\n";
        assert_eq!(parse_vm_hwm(status), Some(102400 * 1024));
    }

    #[test]
    fn vm_hwm_degrades_to_none_off_linux() {
        // No VmHWM line (macOS, restricted /proc, empty read).
        assert_eq!(parse_vm_hwm(""), None);
        assert_eq!(parse_vm_hwm("Name:\tbench\nThreads:\t8\n"), None);
        // Malformed lines: missing value, non-numeric value.
        assert_eq!(parse_vm_hwm("VmHWM:\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tlots kB\n"), None);
    }
}
