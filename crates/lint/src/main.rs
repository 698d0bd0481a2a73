//! CLI entry point for `crowdkit-lint`.
//!
//! ```text
//! crowdkit-lint [--root <dir>] [--json <path>] [--rule <ID>]...
//!               [--audit-suppressions]
//! ```
//!
//! Exits nonzero when any unsuppressed finding survives; with
//! `--audit-suppressions`, also when any suppression comment no longer
//! suppresses anything. `ci.sh` runs it with `--json LINT.json
//! --audit-suppressions`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use crowdkit_lint::engine::{render_audit, render_human, render_json, scan, Config};
use crowdkit_lint::rules::ALL_RULES;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_path: Option<PathBuf> = None;
    let mut audit = false;
    let mut only_rules: BTreeSet<String> = BTreeSet::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--json" => match args.next() {
                Some(v) => json_path = Some(PathBuf::from(v)),
                None => return usage("--json needs a path"),
            },
            "--audit-suppressions" => audit = true,
            "--rule" => match args.next() {
                Some(v) if ALL_RULES.contains(&v.as_str()) => {
                    only_rules.insert(v);
                }
                Some(v) => return usage(&format!("unknown rule `{v}` (known: {ALL_RULES:?})")),
                None => return usage("--rule needs a rule id"),
            },
            "--help" | "-h" => {
                println!(
                    "crowdkit-lint [--root <dir>] [--json <path>] [--rule <ID>]... \
[--audit-suppressions]\n\
                     rules: {ALL_RULES:?}"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if audit && !only_rules.is_empty() {
        // A rule filter would zero hit counts for the filtered-out rules
        // and report every one of their suppressions as stale.
        return usage("--audit-suppressions requires the full rule set (drop --rule)");
    }

    let report = scan(&Config { root, only_rules });

    print!("{}", render_human(&report));
    if audit {
        print!("{}", render_audit(&report));
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, render_json(&report)) {
            eprintln!("crowdkit-lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let stale_sups = if audit {
        report.stale_suppressions().len()
    } else {
        0
    };
    if report.findings.is_empty() && stale_sups == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("crowdkit-lint: {msg}");
    ExitCode::FAILURE
}
