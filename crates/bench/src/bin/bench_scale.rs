// crowdkit-lint: allow-file(PANIC001) — bench harness: inputs are self-generated and fail-fast on violated invariants is the correct idiom
//! `bench_scale` — the million-scale truth-inference macrobench.
//!
//! Synthesizes a large sparse labeling workload directly into a
//! [`ResponseMatrix`] (no `SimulatedCrowd` machinery — at 10M observations
//! the generator itself must be a few hundred ms) and times full
//! `infer` runs of the EM-family algorithms, each in two variants:
//!
//! * `ds` / `zc` / `glad` — freezing enabled ([`FreezeConfig::sparse`]),
//!   the sparse incremental E-step this bench exists to measure;
//! * `ds_dense` / `zc_dense` / `glad_dense` — freezing disabled, the
//!   pre-freezing dense kernels, kept as the in-run baseline so every
//!   history line carries its own speedup evidence;
//! * `kos` — message passing has no posterior-freezing analogue, so it
//!   runs once, as the non-EM reference point.
//!
//! The workload is a pure function of `--seed` (splitmix64 throughout):
//! binary labels so KOS participates, external task/worker ids
//! deliberately sparse (large odd-stride multiples) so the run exercises
//! the `IdInterner` dense-mapping path rather than identity ids.
//!
//! Results go to `BENCH_scale.json` (`bench: "scale"`) with per-algorithm
//! `ns_per_iter` and `peak_rss` (the process `VmHWM` high-water mark after
//! that algorithm ran — monotone across the run by construction).
//! `crowdtrace regress` baselines scale runs only against other scale
//! lines of `BENCH_HISTORY.jsonl`, and appends the run there once it
//! passed.
//!
//! ```sh
//! cargo run --release -p crowdkit-bench --bin bench_scale -- smoke
//! cargo run --release -p crowdkit-bench --bin bench_scale -- full
//! cargo run --release -p crowdkit-bench --bin bench_scale -- smoke \
//!     --tasks 20000 --workers 2000 --responses 200000 --seed 7
//! ```

use crowdkit_core::ids::{TaskId, WorkerId};
use crowdkit_core::par::default_threads;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::TruthInferencer;
use crowdkit_trace::history::{git_short_rev, AlgoTiming};
use crowdkit_truth::em::EmConfig;
use crowdkit_truth::glad::GladConfig;
use crowdkit_truth::{DawidSkene, FreezeConfig, Glad, Kos, OneCoinEm};
use std::time::Instant;

/// Freeze tolerance for the sparse variants: loose enough that settled
/// tasks leave the worklist (and settled GLAD abilities pin) within a
/// few sweeps. 1e-3 is the documented speed/fidelity knob setting —
/// label preservation at this tolerance is pinned by the truth crate's
/// freezing unit tests; tighten via `--eps` to trade speed back for
/// posterior fidelity.
const FREEZE_EPS: f64 = 1e-3;

/// One timing sample per algorithm on the full workload, three on smoke.
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
    samples: 3,
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

/// Median ns per full `infer` call, plus the post-run RSS high-water mark.
fn time_algo(algo: &dyn TruthInferencer, m: &ResponseMatrix, w: &Workload) -> AlgoTiming {
    for _ in 0..w.warmup {
        std::hint::black_box(algo.infer(std::hint::black_box(m)).unwrap());
    }
    let mut samples: Vec<u64> = (0..w.samples)
        .map(|_| {
            let start = Instant::now(); // crowdkit-lint: allow(DET002) — benchmark harness: measuring wall time is the point
            std::hint::black_box(algo.infer(std::hint::black_box(m)).unwrap());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    AlgoTiming {
        ns_per_iter: samples[samples.len() / 2],
        peak_rss: peak_rss_bytes(),
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

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("flag {name} needs a value"))
            .as_str()
    })
}

fn parse_u64_flag(args: &[String], name: &str, default: u64) -> u64 {
    flag_value(args, name)
        .map(|v| v.parse().unwrap_or_else(|_| panic!("flag {name} wants an integer")))
        .unwrap_or(default)
}

fn parse_f64_flag(args: &[String], name: &str, default: f64) -> f64 {
    flag_value(args, name)
        .map(|v| v.parse().unwrap_or_else(|_| panic!("flag {name} wants a number")))
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.first() {
        Some(a) if !a.starts_with("--") => a.as_str(),
        _ => "smoke",
    };
    let base = match mode {
        "smoke" => SMOKE,
        "full" => FULL,
        other => panic!("unknown mode `{other}` (expected `smoke` or `full`)"),
    };
    let w = Workload {
        tasks: parse_u64_flag(&args, "--tasks", base.tasks),
        workers: parse_u64_flag(&args, "--workers", base.workers),
        responses: parse_u64_flag(&args, "--responses", base.responses),
        seed: parse_u64_flag(&args, "--seed", base.seed),
        ..base
    };

    let gen_start = Instant::now(); // crowdkit-lint: allow(DET002) — benchmark harness: measuring wall time is the point
    let m = workload(&w);
    println!(
        "workload[{mode}]: {} tasks, {} workers, {} observations (seed {:#x}) in {:.1} ms",
        m.num_tasks(),
        m.num_workers(),
        m.num_observations(),
        w.seed,
        gen_start.elapsed().as_secs_f64() * 1e3
    );

    let eps = parse_f64_flag(&args, "--eps", FREEZE_EPS);
    let sparse = FreezeConfig::sparse(eps);
    let em_sparse = EmConfig::default().with_freeze(sparse);
    let glad_sparse = GladConfig::default().with_freeze(sparse);
    let algos: Vec<(&str, Box<dyn TruthInferencer>)> = vec![
        ("ds_dense", Box::new(DawidSkene::default())),
        ("ds", Box::new(DawidSkene::with_config(em_sparse))),
        ("zc_dense", Box::new(OneCoinEm::default())),
        ("zc", Box::new(OneCoinEm::with_config(em_sparse))),
        ("glad_dense", Box::new(Glad::default())),
        ("glad", Box::new(Glad::with_config(glad_sparse))),
        ("kos", Box::new(Kos::default())),
    ];
    let timings: Vec<(&str, AlgoTiming)> = algos
        .iter()
        .map(|(name, algo)| {
            let t = time_algo(algo.as_ref(), &m, &w);
            println!(
                "{name:<10} {:>14} ns/iter   peak_rss {:>10}",
                t.ns_per_iter,
                t.peak_rss.map_or("n/a".to_string(), |b| format!("{b}")),
            );
            (*name, t)
        })
        .collect();

    let ns_of = |name: &str| {
        timings
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| t.ns_per_iter)
            .expect("algorithm was timed")
    };
    for algo in ["ds", "zc", "glad"] {
        let dense = ns_of(&format!("{algo}_dense"));
        let sparse_ns = ns_of(algo);
        println!(
            "{algo:<5} sparse speedup: {:.2}x (dense {dense} ns → sparse {sparse_ns} ns)",
            dense as f64 / sparse_ns.max(1) as f64
        );
    }

    let out_path = "BENCH_scale.json";
    // Hand-rolled JSON, as in bench_truth: flat structure with a fixed key
    // set, so a serde dependency would be pure weight.
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": {{\"mode\": \"{mode}\", \"tasks\": {}, \"workers\": {}, \"observations\": {}, \"seed\": {}}},\n",
        m.num_tasks(),
        m.num_workers(),
        m.num_observations(),
        w.seed
    ));
    json.push_str("  \"bench\": \"scale\",\n");
    json.push_str(&format!("  \"threads\": {},\n", default_threads()));
    json.push_str(&format!("  \"git_rev\": \"{}\",\n", git_short_rev()));
    json.push_str("  \"algorithms\": {\n");
    for (i, (name, t)) in timings.iter().enumerate() {
        let comma = if i + 1 < timings.len() { "," } else { "" };
        // An explicit null keeps the snapshot schema fixed when VmHWM is
        // unavailable; readers treat it as "not measured". History lines
        // omit the field instead — their compact form is the bare ns
        // integer.
        let rss = t
            .peak_rss
            .map_or("null".to_string(), |rss| rss.to_string());
        json.push_str(&format!(
            "    \"{name}\": {{\"ns_per_iter\": {}, \"peak_rss\": {rss}}}{comma}\n",
            t.ns_per_iter
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(out_path, json).expect("write bench results");
    println!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

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
