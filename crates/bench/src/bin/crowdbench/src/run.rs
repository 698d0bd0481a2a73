//! One run of one workload: set-up, the timed closed loop, the checks and
//! the metrics.
//!
//! One client runs one job after another, each finishing before the next
//! starts. The loop cycles through the run's distinct inputs until both
//! `seconds` have passed and at least [`MIN_JOBS`] jobs ran, so p90 always
//! has five samples beyond it. Every repeat of an input must reproduce the
//! first pass's output; the deterministic metrics (`spend`,
//! `accuracy`, `sim_latency_s`) are totals over that first pass, so they
//! do not depend on how many jobs fit in the time.
//!
//! A traced run alternates untraced and traced jobs over the same inputs:
//! the traced ones give the per-layer rollup, and the pair of medians gives
//! the tracing overhead.
//!
//! Every wall time is scaled to a nominal machine speed; see [`crate::speed`].

use std::sync::Arc;

use crowdkit_obs::{self as obs, MemoryRecorder, WallTimer};

use crate::layers::rollup;
use crate::report::{Metric, RunResult};
use crate::speed::{reference_ms, NOMINAL_MS};
use crate::stats::{median, p90, percentile, sorted, P90_MIN_SAMPLES};
use crate::trace::Tracer;
use crate::workloads::{JobCtx, JobOutput, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;
/// Fewest timed jobs per run: p90 needs five samples beyond it.
pub const MIN_JOBS: usize = P90_MIN_SAMPLES;
/// The loop stops here even short of [`MIN_JOBS`], keeping a run inside
/// the 180 s limit on a slow machine.
const MAX_LOOP_S: f64 = 140.0;
/// Least time between two reference-kernel samples in the timed loop.
const REFERENCE_EVERY_S: f64 = 0.2;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Width of the platform pool and the EM kernels.
    pub threads: usize,
}

fn secs(t: WallTimer) -> f64 {
    t.elapsed_ns() as f64 / 1e9
}

/// Runs `cfg`; returns the result and, for a traced run, the spans as JSONL.
pub fn run(cfg: &RunConfig) -> (RunResult, Option<String>) {
    let mut problems = Vec::new();
    // Warm-up: the kernel's first run pays for cold caches. Each set-up is
    // then scaled by the kernel run right after it: set-up is short, and
    // the host's speed at start-up need not match the loop's.
    reference_ms();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut timed_setup = || {
        let t = WallTimer::start();
        let inputs = cfg.workload.setup(cfg.seed);
        let s = secs(t);
        setup_s.push(s * NOMINAL_MS / reference_ms());
        inputs
    };
    let inputs = timed_setup();
    let input_digest = inputs.digest();
    for _ in 1..SETUP_REPEATS {
        if timed_setup().digest() != input_digest {
            problems.push("set-up is not a pure function of the seed".to_owned());
        }
    }

    let k = inputs.len();
    let tracer = Tracer::new(true);
    let off = Tracer::new(false);
    let events = Arc::new(MemoryRecorder::new());
    let glad = Arc::new(MemoryRecorder::new());
    let mut first: Vec<Option<JobOutput>> = vec![None; k];
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut ref_ms = Vec::new();
    let start = WallTimer::start();
    let mut last_ref = WallTimer::start();
    for i in 0.. {
        let elapsed = secs(start);
        if i >= k && ((i >= MIN_JOBS && elapsed >= cfg.seconds) || elapsed >= MAX_LOOP_S) {
            break;
        }
        let traced = cfg.trace && i % 2 == 1;
        tracer.set_job(i as u64);
        let ctx = JobCtx {
            threads: cfg.threads,
            tracer: if traced { &tracer } else { &off },
            glad_rec: traced.then(|| glad.clone()),
        };
        let t = WallTimer::start();
        // crowdkit-lint: allow(DET001) — the hash-ordered chain ends in candidate_pairs, which sorts its pairs before returning; the repeat-digest check below pins job outputs
        let job = || inputs.run_job(i, &ctx);
        let result = if traced {
            obs::with_recorder(events.clone(), || tracer.span("job", job))
        } else {
            job()
        };
        let ms = t.elapsed_ns() as f64 / 1e6;
        if traced {
            traced_ms.push(ms);
        } else {
            untraced_ms.push(ms);
        }
        attempted += 1;
        let verdict = result.and_then(|out| {
            let checked = out.check(cfg.workload);
            match &first[i % k] {
                Some(f) => f
                    .same_as(&out)
                    .map_err(|e| format!("differs from the first run of this input: {e}"))?,
                None => first[i % k] = Some(out),
            }
            checked
        });
        if let Err(e) = verdict {
            failed += 1;
            problems.push(format!("job {i}: {e}"));
        }
        if secs(last_ref) >= REFERENCE_EVERY_S {
            ref_ms.push(reference_ms());
            last_ref = WallTimer::start();
        }
    }

    // The same job at another pool and kernel width must give the same bits.
    let other = if cfg.threads == 1 { 2 } else { 1 };
    let ctx = JobCtx {
        threads: other,
        tracer: &off,
        glad_rec: None,
    };
    attempted += 1;
    let verdict = inputs.run_job(0, &ctx).and_then(|out| match &first[0] {
        Some(f) => f
            .same_as(&out)
            .map_err(|e| format!("differs from {} threads: {e}", cfg.threads)),
        None => Err("no run of job 0 to compare with".to_owned()),
    });
    if let Err(e) = verdict {
        failed += 1;
        problems.push(format!("job 0 at {other} threads: {e}"));
    }

    ref_ms.push(reference_ms());
    let ref_median = median(&sorted(&ref_ms)).unwrap_or(NOMINAL_MS);
    let scale = NOMINAL_MS / ref_median;
    let metrics = if cfg.trace {
        rollup(&tracer, &events, &glad, &traced_ms, &untraced_ms, scale)
    } else {
        end_to_end(&setup_s, &untraced_ms, scale, &first, &mut problems)
    };
    let result = RunResult {
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
        ref_ms: ref_median,
    };
    (result, cfg.trace.then(|| tracer.to_jsonl()))
}

/// The end-to-end metrics; `scale` converts loop wall times to nominal
/// machine speed (`setup_s` arrives scaled).
fn end_to_end(
    setup_s: &[f64],
    job_ms: &[f64],
    scale: f64,
    first: &[Option<JobOutput>],
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let jobs: Vec<f64> = sorted(job_ms).iter().map(|ms| ms * scale).collect();
    let n = jobs.len();
    let p90 = p90(&jobs).unwrap_or_else(|| {
        problems.push(format!("only {n} timed jobs; p90 needs {P90_MIN_SAMPLES}"));
        f64::NAN
    });
    let rss = peak_rss_mib().unwrap_or_else(|| {
        problems.push("VmHWM is unavailable".to_owned());
        f64::NAN
    });
    let pass: Vec<&JobOutput> = first.iter().flatten().collect();
    let k = pass.len();
    let correct: u64 = pass.iter().map(|o| o.correct).sum();
    let decisions: u64 = pass.iter().map(|o| o.decisions).sum();
    vec![
        Metric::new(
            "setup_s",
            median(&sorted(setup_s)).unwrap_or(f64::NAN),
            "s",
            setup_s.len(),
        ),
        Metric::new(
            "job_p50_ms",
            percentile(&jobs, 50.0).unwrap_or(f64::NAN),
            "ms",
            n,
        ),
        Metric::new("job_p90_ms", p90, "ms", n),
        Metric::new("peak_rss_mb", rss, "MiB", 1),
        Metric::new("spend", pass.iter().map(|o| o.spend).sum(), "units", k),
        Metric::new(
            "accuracy",
            correct as f64 / decisions.max(1) as f64,
            "fraction",
            decisions as usize,
        ),
        Metric::new(
            "sim_latency_s",
            pass.iter().map(|o| o.sim_latency_s()).sum(),
            "sim_s",
            k,
        ),
    ]
}

/// The `VmHWM` line of `/proc/self/status`, in MiB.
fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// This process's peak resident set, in MiB.
fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_the_linux_status_format() {
        let status = "Name:\tcrowdbench\nVmHWM:\t  102400 kB\nThreads:\t3\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(100.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
    }
}
