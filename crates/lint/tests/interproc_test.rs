//! Integration tests for the workspace-level passes: interprocedural
//! DET001/DET002 taint with witness chains, and the CONC rule family on
//! known-bad / known-good fixture pairs.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crowdkit_lint::{scan_file, scan_paths, Report};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Scans a set of fixtures as one workspace with one rule active.
fn scan_workspace(files: &[&str], rule: &str) -> Report {
    let root = fixtures_root();
    let paths: Vec<PathBuf> = files.iter().map(|f| root.join(f)).collect();
    let only: BTreeSet<String> = [rule.to_owned()].into();
    scan_paths(&root, &paths, &only)
}

#[test]
fn det002_taint_flags_a_two_hop_chain_the_per_site_rule_misses() {
    let report = scan_workspace(&["taint_det002.rs"], "DET002");
    // Per-site: the Instant::now() in `stamp`. Taint: the relay (`jitter`
    // calls `stamp`) and the two-hop consumer (`schedule` calls `jitter`).
    let lines: Vec<(u32, bool)> = report
        .findings
        .iter()
        .map(|f| (f.line, f.chain.is_empty()))
        .collect();
    assert_eq!(
        lines,
        vec![(5, true), (10, false), (14, false)],
        "findings: {:#?}",
        report.findings
    );
    // The consumer's witness chain walks both hops down to the seed.
    let chain = &report.findings[2].chain;
    assert!(chain[0].starts_with("schedule "), "{chain:?}");
    assert!(chain[1].starts_with("jitter "), "{chain:?}");
    assert!(chain[2].starts_with("stamp "), "{chain:?}");
    assert!(chain[3].starts_with("Instant::now()"), "{chain:?}");
    // The per-site scanner alone sees only the seed.
    let root = fixtures_root();
    let only: BTreeSet<String> = ["DET002".to_owned()].into();
    let (per_site, _) = scan_file(&root, &root.join("taint_det002.rs"), &only);
    assert_eq!(per_site.len(), 1);
    assert_eq!(per_site[0].line, 5);
}

#[test]
fn det001_taint_requires_an_order_sensitive_consumer() {
    let report = scan_workspace(&["taint_det001.rs"], "DET001");
    // Only `total` (accumulates floats) is flagged, at its call into the
    // relay; `relay` itself neither folds nor serializes.
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "DET001");
    assert!(f.chain[0].starts_with("total "), "{:?}", f.chain);
    assert!(
        f.chain.iter().any(|l| l.starts_with("leak_order ")),
        "{:?}",
        f.chain
    );
    assert!(
        f.chain.last().is_some_and(|l| l.contains("m.values()")),
        "{:?}",
        f.chain
    );
    // No per-site DET001 exists anywhere in this fixture: the defect is
    // only visible interprocedurally.
    let root = fixtures_root();
    let only: BTreeSet<String> = ["DET001".to_owned()].into();
    let (per_site, _) = scan_file(&root, &root.join("taint_det001.rs"), &only);
    assert!(per_site.is_empty(), "{per_site:#?}");
}

#[test]
fn conc001_reports_the_ab_ba_cycle_with_both_acquisition_sites() {
    let report = scan_workspace(&["conc001_bad.rs"], "CONC001");
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    let f = &report.findings[0];
    assert!(f.message.contains("lock-ordering cycle"), "{}", f.message);
    // Both edges, each with its two acquisition sites.
    assert!(
        f.message.contains(
            "local::alpha acquired at conc001_bad.rs:11 then local::beta at conc001_bad.rs:12"
        ),
        "{}",
        f.message
    );
    assert!(
        f.message.contains(
            "local::beta acquired at conc001_bad.rs:17 then local::alpha at conc001_bad.rs:18"
        ),
        "{}",
        f.message
    );
    let clean = scan_workspace(&["conc001_good.rs"], "CONC001");
    assert!(clean.findings.is_empty(), "{:#?}", clean.findings);
}

#[test]
fn conc002_flags_unjustified_seqcst_mixing() {
    let report = scan_workspace(&["conc002_bad.rs"], "CONC002");
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    assert_eq!(report.findings[0].line, 5);
    assert!(report.findings[0]
        .message
        .contains("mixed atomic orderings"));

    // An `// ORDERING:` comment justifies deliberate mixing.
    let clean = scan_workspace(&["conc002_good.rs"], "CONC002");
    assert!(clean.findings.is_empty(), "{:#?}", clean.findings);
}

#[test]
fn conc003_flags_guards_held_across_oracle_calls_and_nested_locks() {
    let report = scan_workspace(&["conc003_bad.rs"], "CONC003");
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(report.findings.len(), 2, "{msgs:#?}");
    assert!(
        msgs[0].contains("held across CrowdOracle call `ask_batch`"),
        "{msgs:#?}"
    );
    assert!(
        msgs[1].contains("held across call to `helper`") && msgs[1].contains("local::other"),
        "{msgs:#?}"
    );
    // Block-scoping the guard / dropping it first is clean.
    let clean = scan_workspace(&["conc003_good.rs"], "CONC003");
    assert!(clean.findings.is_empty(), "{:#?}", clean.findings);
}

#[test]
fn callgraph_stats_are_reported_and_plausible() {
    let report = scan_workspace(&["taint_det002.rs", "taint_det001.rs"], "DET002");
    assert_eq!(report.functions, 6);
    assert!(report.resolution.resolved >= 3, "{:?}", report.resolution);
    // `collect`/`values`/`cloned` etc. land in the extern bucket, never on
    // workspace functions.
    assert!(report.resolution.unresolved_names.contains("values"));
}
