//! `crowdbench` — one seeded benchmark of the whole crowd pipeline, end to
//! end and per layer.
//!
//! A run generates every input from its seed, then runs jobs of one
//! workload in a closed loop (one client, one job after another) through
//! the public APIs of the platform simulator, assignment, truth inference,
//! CrowdSQL, crowd-Datalog and the crowd operators. It reports what a user
//! sees — set-up time, job latency, memory, simulated spend, accuracy and
//! simulated crowd latency — and checks every output. A traced run reports
//! per-layer time and counts instead, from spans the benchmark opens
//! around each layer call. See `README.md` for the metrics, the workloads
//! and why each was chosen.
//!
//! ```text
//! crowdbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!            [--threads N] [--out DIR]
//! crowdbench run <name> [same flags]
//! crowdbench all [same flags]        each workload in a fresh child process
//! crowdbench check [--seed N]        correctness gate, one job per workload
//! crowdbench compare <setA/> <setB/> [--benchmark BENCHMARK.json]
//! ```
//!
//! The last line of a run's standard output is its result as one JSON
//! object; the exit code is 0 only when every check passed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod compare;
mod layers;
mod report;
mod run;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use run::{run, RunConfig};
use trace::Tracer;
use workloads::{JobCtx, Workload, ALL};

const USAGE: &str = "usage: crowdbench [run <workload> | --workload <workload>] [--seed N] \
[--seconds S] [--trace 0|1] [--threads N] [--out DIR]\n       \
crowdbench all [flags] | crowdbench check [--seed N] | \
crowdbench compare <setA/> <setB/> [--benchmark PATH]\n\
workloads: bulk_label, adaptive_label, crowd_query";

/// Command-line settings shared by `run`, `all` and `check`.
#[derive(Debug, Clone)]
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    out: Option<PathBuf>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut f = Flags {
            workload: None,
            seed: 1,
            seconds: 25.0,
            trace: false,
            threads: 2,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => f.workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => f.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    f.seconds = value.parse().map_err(|_| bad())?;
                    if !(f.seconds > 0.0 && f.seconds <= 120.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    f.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--threads" => {
                    f.threads = value.parse().map_err(|_| bad())?;
                    if !(1..=64).contains(&f.threads) {
                        return Err(bad());
                    }
                }
                "--out" => f.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(f)
    }

    /// The flags as arguments for a child process running `workload`.
    fn child_args(&self, workload: Workload) -> Vec<String> {
        let mut args = vec![
            "--workload".to_owned(),
            workload.name().to_owned(),
            "--seed".to_owned(),
            self.seed.to_string(),
            "--seconds".to_owned(),
            self.seconds.to_string(),
            "--trace".to_owned(),
            u8::from(self.trace).to_string(),
            "--threads".to_owned(),
            self.threads.to_string(),
        ];
        if let Some(out) = &self.out {
            args.extend(["--out".to_owned(), out.display().to_string()]);
        }
        args
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("crowdbench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("check") => Ok(check(&Flags::parse(&args[1..])?)),
        Some("all") => all(&Flags::parse(&args[1..])?),
        Some("run") => {
            let name = args.get(1).ok_or("run needs a workload")?;
            let workload =
                Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
            let flags = Flags::parse(&args[2..])?;
            run_one(&Flags {
                workload: Some(workload),
                ..flags
            })
        }
        _ => run_one(&Flags::parse(args)?),
    }
}

fn run_one(f: &Flags) -> Result<ExitCode, String> {
    let workload = f.workload.ok_or("no workload given")?;
    let cfg = RunConfig {
        workload,
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
        threads: f.threads,
    };
    let (result, spans) = run(&cfg);
    println!(
        "crowdbench {} seed={} threads={} trace={} jobs={} failed={}",
        workload.name(),
        f.seed,
        f.threads,
        u8::from(f.trace),
        result.attempted,
        result.failed
    );
    print!("{}", result.table());
    if let Some(dir) = &f.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let stem = format!(
            "{}-{}{}",
            workload.name(),
            f.seed,
            if f.trace { "-trace" } else { "" }
        );
        let settings = [
            ("workload", format!("\"{}\"", workload.name())),
            ("seed", f.seed.to_string()),
            ("threads", f.threads.to_string()),
            ("trace", f.trace.to_string()),
            ("seconds", f.seconds.to_string()),
            ("ref_ms", result.ref_ms.to_string()),
        ];
        let path = dir.join(format!("{stem}.result.json"));
        std::fs::write(&path, result.to_json(&settings, true) + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(spans) = spans {
            let path = dir.join(format!("{stem}.spans.jsonl"));
            std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    println!("{}", result.to_json(&[], false));
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload in a fresh child process, so peak RSS and warm-up
/// belong to one workload each.
fn all(f: &Flags) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut ok = true;
    for w in ALL {
        let status = Command::new(&exe)
            .args(f.child_args(w))
            .status()
            .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
        ok &= status.success();
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The correctness gate: for one job per workload, seed purity of the
/// inputs, identical outputs at 1 and 2 threads and with tracing on, and
/// the per-job checks.
fn check(f: &Flags) -> ExitCode {
    let mut ok = true;
    for w in ALL {
        let inputs = w.setup(f.seed);
        let off = Tracer::new(false);
        let on = Tracer::new(true);
        let job = |threads, tracer| {
            inputs.run_job(
                0,
                &JobCtx {
                    threads,
                    tracer,
                    glad_rec: None,
                },
            )
        };
        let verdict = (|| {
            if inputs.digest() != w.setup(f.seed).digest() {
                return Err("inputs are not a pure function of the seed".to_owned());
            }
            let one = job(1, &off)?;
            one.check(w)?;
            one.same_as(&job(2, &off)?)
                .map_err(|e| format!("outputs differ between 1 and 2 threads: {e}"))?;
            one.same_as(&job(2, &on)?)
                .map_err(|e| format!("tracing changed the outputs: {e}"))?;
            Ok(one)
        })();
        match verdict {
            Ok(out) => println!(
                "check {:<15} ok   accuracy={:.4} spend={} answers={} digest={:016x}",
                w.name(),
                out.accuracy(),
                out.spend,
                out.answers,
                out.digest
            ),
            Err(e) => {
                ok = false;
                println!("check {:<15} FAIL {e}", w.name());
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
