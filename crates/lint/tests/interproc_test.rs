//! Integration tests for the workspace-level passes: interprocedural
//! DET001/DET002 taint with witness chains, the CONC rule family on
//! known-bad / known-good fixture pairs, fingerprint stability, and the
//! ratcheted baseline (library and CLI).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crowdkit_lint::engine::{apply_baseline, scan_paths};
use crowdkit_lint::{baseline, scan_file, Report};

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
    assert!(f.scope == "total", "scope: {}", f.scope);
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
fn fingerprints_are_stable_across_unrelated_line_drift() {
    let report = scan_workspace(&["conc003_bad.rs"], "CONC003");
    let fp: Vec<&str> = report
        .findings
        .iter()
        .map(|f| f.fingerprint.as_str())
        .collect();
    assert!(fp.iter().all(|f| f.len() == 16), "{fp:?}");
    // Same file scanned from a copy with lines shifted: the fingerprint
    // must not move (it hashes rule|file|scope|key|ordinal, not the line).
    let src = std::fs::read_to_string(fixtures_root().join("conc003_bad.rs")).expect("fixture");
    let shifted = format!("// shim\n// shim\n// shim\n{src}");
    let dir = std::env::temp_dir().join("crowdkit_lint_fp_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    std::fs::write(dir.join("conc003_bad.rs"), shifted).expect("write shifted copy");
    let only: BTreeSet<String> = ["CONC003".to_owned()].into();
    let report2 = scan_paths(&dir, &[dir.join("conc003_bad.rs")], &only);
    let fp2: Vec<String> = report2
        .findings
        .iter()
        .map(|f| f.fingerprint.clone())
        .collect();
    assert_eq!(fp, fp2, "fingerprints moved under pure line drift");
}

#[test]
fn baseline_ratchet_absorbs_known_debt_and_fails_on_stale_entries() {
    let mut report = scan_workspace(&["conc003_bad.rs"], "CONC003");
    assert_eq!(report.findings.len(), 2);
    let rows: Vec<(String, String, String, String)> = report
        .findings
        .iter()
        .map(|f| {
            (
                f.fingerprint.clone(),
                f.rule.to_owned(),
                f.file.clone(),
                "acknowledged for the ratchet test".to_owned(),
            )
        })
        .collect();
    let b = baseline::parse(&baseline::render(&rows)).expect("roundtrip");
    apply_baseline(&mut report, &b);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert_eq!(report.baselined.len(), 2);
    assert!(report.stale_baseline.is_empty());

    // A baseline entry nothing matches is stale debt: the ratchet fails.
    let mut report = scan_workspace(&["conc003_good.rs"], "CONC003");
    let b = baseline::parse(&baseline::render(&rows)).expect("roundtrip");
    apply_baseline(&mut report, &b);
    assert_eq!(report.stale_baseline.len(), 2);
}

#[test]
fn cli_ratchet_writes_and_enforces_a_baseline() {
    let bin = env!("CARGO_BIN_EXE_crowdkit-lint");
    let root = fixtures_root().join("doc_bad");
    let dir = std::env::temp_dir().join("crowdkit_lint_cli_ratchet");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bl = dir.join("baseline.json");

    // Plain scan fails; --write-baseline records the debt.
    let out = std::process::Command::new(bin)
        .args(["--root"])
        .arg(&root)
        .arg("--write-baseline")
        .arg(&bl)
        .output()
        .expect("run crowdkit-lint");
    assert!(!out.status.success(), "doc_bad has findings");

    // Reasons start as PLACEHOLDER; a human must write real ones.
    let text = std::fs::read_to_string(&bl).expect("baseline written");
    assert!(text.contains("PLACEHOLDER"));
    let text = text.replace(
        "PLACEHOLDER — write why this debt is acknowledged",
        "legacy crate predating the header rule",
    );
    std::fs::write(&bl, &text).expect("edit reasons");

    // With the baseline the same tree passes: no NEW debt.
    let out = std::process::Command::new(bin)
        .args(["--root"])
        .arg(&root)
        .arg("--baseline")
        .arg(&bl)
        .output()
        .expect("run crowdkit-lint");
    assert!(
        out.status.success(),
        "baselined tree must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // A stale entry (fixed finding still listed) fails the ratchet.
    let stale = text.replace(
        "\"entries\": [",
        "\"entries\": [\n    {\"fingerprint\": \"00000000deadbeef\", \"rule\": \"DOC001\", \
\"file\": \"src/lib.rs\", \"reason\": \"was fixed long ago\"},",
    );
    let stale = stale.replace(
        &format!("\"burn_down\": {}", baseline_len(&text)),
        &format!("\"burn_down\": {}", baseline_len(&text) + 1),
    );
    std::fs::write(&bl, stale).expect("write stale baseline");
    let out = std::process::Command::new(bin)
        .args(["--root"])
        .arg(&root)
        .arg("--baseline")
        .arg(&bl)
        .output()
        .expect("run crowdkit-lint");
    assert!(
        !out.status.success(),
        "stale baseline entries must fail the ratchet: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("STALE"));
}

fn baseline_len(text: &str) -> usize {
    baseline::parse(text).expect("valid baseline").entries.len()
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
