//! The experiment runner.
//!
//! ```sh
//! experiments all                           # every experiment, in order
//! experiments all --report                  # also writes RUNREPORT.json
//! experiments all --report --log run.jsonl  # plus the merged event log
//! experiments e10 --report                  # subset, with telemetry
//! experiments e1 e3 e10                     # selected experiments
//! experiments list                          # id + description
//! ```
//!
//! `--report` runs the selection instrumented: every experiment executes
//! under its own in-memory recorder and the distilled cost/latency/quality
//! triangle lands in `RUNREPORT.json`. `--log <path>` runs it instrumented
//! too and captures the full deterministic event stream (wall-clock data
//! omitted) as JSONL; it writes `RUNREPORT.json` only next to `--report`.

use std::process::ExitCode;

use crowdkit_bench::{run_by_name, run_with_report, EXPERIMENTS};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        eprintln!("usage: experiments <all | e1 [e2 …]> [--report] [--log <path>] | list");
        return ExitCode::from(2);
    }
    if args[0] == "list" {
        for e in EXPERIMENTS {
            println!("{:<4} {}", e.id, e.description);
        }
        return ExitCode::SUCCESS;
    }

    let mut report = false;
    let mut log_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--report" => {
                report = true;
                args.remove(i);
            }
            "--log" => {
                if i + 1 >= args.len() {
                    eprintln!("--log requires a path");
                    return ExitCode::from(2);
                }
                log_path = Some(args.remove(i + 1));
                args.remove(i);
            }
            _ => i += 1,
        }
    }
    if args.is_empty() {
        eprintln!("no experiments selected (try `experiments list`)");
        return ExitCode::from(2);
    }
    let ids: Vec<&str> = if args[0] == "all" {
        EXPERIMENTS.iter().map(|e| e.id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };

    let log_requested = log_path.is_some();
    if report || log_requested {
        // crowdkit-lint: allow(DET002) — experiment driver: per-run wall timings are reported on purpose
        let Some(suite) = run_with_report(&ids, log_requested) else {
            eprintln!("unknown experiment id in {ids:?} (try `experiments list`)");
            return ExitCode::FAILURE;
        };
        print!("{}", suite.rendered);
        if report {
            if let Err(e) = std::fs::write("RUNREPORT.json", suite.report.to_json()) {
                eprintln!("failed to write RUNREPORT.json: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "RUNREPORT.json: {} experiments, {} crowd questions, {:.2} spent",
                suite.report.experiments.len(),
                suite.report.total_questions(),
                suite.report.total_spend(),
            );
        }
        if let Some(path) = log_path {
            if let Err(e) = std::fs::write(&path, &suite.events) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            let lines = suite.events.iter().filter(|&&b| b == b'\n').count();
            eprintln!(
                "{path}: {} events (+ stream header)",
                lines.saturating_sub(1)
            );
        }
        return ExitCode::SUCCESS;
    }

    for id in ids {
        match run_by_name(id) {
            Some(output) => print!("{output}"),
            None => {
                eprintln!("unknown experiment '{id}' (try `experiments list`)");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
