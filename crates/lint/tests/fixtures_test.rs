//! Integration tests pinning each rule's behaviour on known-bad and
//! known-good fixture files, the suppression protocol, `#[cfg(test)]`
//! scoping — and the big one: the workspace itself must scan clean.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crowdkit_lint::{scan, scan_file, Config, Finding};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Scans one fixture with one rule active; returns (kept, suppressed-count).
fn scan_fixture(file: &str, rule: &str) -> (Vec<Finding>, usize) {
    let root = fixtures_root();
    let only: BTreeSet<String> = [rule.to_owned()].into();
    let (kept, suppressed) = scan_file(&root, &root.join(file), &only);
    (kept, suppressed.values().sum())
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn det001_flags_hash_iteration_with_float_accumulation_and_output() {
    let (kept, _) = scan_fixture("det001_bad.rs", "DET001");
    assert_eq!(rules_of(&kept), vec!["DET001", "DET001"]);
    assert_eq!(
        kept[0].line, 5,
        "scores.iter() in the float-accumulating fn"
    );
    assert_eq!(kept[1].line, 12, "for … in m in the serializing fn");
}

#[test]
fn det001_accepts_btreemap_and_keyed_lookups() {
    let (kept, _) = scan_fixture("det001_good.rs", "DET001");
    assert!(kept.is_empty(), "unexpected: {kept:?}");
}

#[test]
fn det002_flags_instant_and_systemtime() {
    let (kept, _) = scan_fixture("det002_bad.rs", "DET002");
    assert_eq!(rules_of(&kept), vec!["DET002", "DET002"]);
    assert_eq!((kept[0].line, kept[1].line), (2, 7));
}

#[test]
fn det002_accepts_walltimer_and_wall_field_readers() {
    // WallTimer is the sanctioned clock wrapper, and trace-analysis code
    // that reads recorded `wall_ns` / `*_ns` *fields* (crowdkit-trace's
    // replay attribution) never touches the host clock — neither may trip
    // the rule.
    let (kept, _) = scan_fixture("det002_good.rs", "DET002");
    assert!(kept.is_empty(), "unexpected: {kept:?}");
}

#[test]
fn panic001_flags_unwrap_expect_and_panic() {
    let (kept, _) = scan_fixture("panic001_bad.rs", "PANIC001");
    assert_eq!(rules_of(&kept), vec!["PANIC001", "PANIC001", "PANIC001"]);
    assert_eq!(
        kept.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![2, 3, 5]
    );
}

#[test]
fn panic001_skips_multiarg_expect_methods_and_test_modules() {
    let (kept, _) = scan_fixture("panic001_good.rs", "PANIC001");
    assert!(kept.is_empty(), "unexpected: {kept:?}");
}

#[test]
fn safety001_requires_a_safety_comment() {
    let (kept, _) = scan_fixture("safety001_bad.rs", "SAFETY001");
    assert_eq!(rules_of(&kept), vec!["SAFETY001"]);
    let (kept, _) = scan_fixture("safety001_good.rs", "SAFETY001");
    assert!(kept.is_empty(), "unexpected: {kept:?}");
}

#[test]
fn doc001_requires_the_crate_root_header() {
    let root = fixtures_root();
    let only: BTreeSet<String> = ["DOC001".to_owned()].into();
    let (kept, _) = scan_file(&root, &root.join("doc_bad/src/lib.rs"), &only);
    assert_eq!(rules_of(&kept), vec!["DOC001", "DOC001", "DOC001"]);
    let (kept, _) = scan_file(&root, &root.join("doc_good/src/lib.rs"), &only);
    assert!(kept.is_empty(), "unexpected: {kept:?}");
}

#[test]
fn doc001_requires_module_docs_on_src_modules() {
    let (kept, _) = scan_fixture("doc_mod/src/bad.rs", "DOC001");
    assert_eq!(rules_of(&kept), vec!["DOC001"]);
    assert!(kept[0].message.contains("module doc"), "{kept:?}");
    let (kept, _) = scan_fixture("doc_mod/src/good.rs", "DOC001");
    assert!(kept.is_empty(), "unexpected: {kept:?}");
    // Files outside src/ trees (tests, fixtures themselves) are exempt.
    let (kept, _) = scan_fixture("det001_good.rs", "DOC001");
    assert!(kept.is_empty(), "unexpected: {kept:?}");
}

#[test]
fn doc001_covers_bin_targets_under_src() {
    // Bench binaries (`src/bin/*.rs`) are src modules like any other: an
    // undocumented main is flagged, and a `//!` header still counts when it
    // follows the `allow-file` suppression line the real binaries open with.
    let (kept, _) = scan_fixture("doc_mod/src/bin/bad_bin.rs", "DOC001");
    assert_eq!(rules_of(&kept), vec!["DOC001"]);
    assert!(kept[0].message.contains("module doc"), "{kept:?}");
    let (kept, _) = scan_fixture("doc_mod/src/bin/good_bin.rs", "DOC001");
    assert!(kept.is_empty(), "unexpected: {kept:?}");
}

#[test]
fn suppressions_need_reasons_and_standalone_covers_the_block() {
    let (kept, suppressed) = scan_fixture("suppress.rs", "PANIC001");
    // Trailing allow (1) + standalone block allow (2 sites) are honoured.
    assert_eq!(suppressed, 3);
    // The reasonless allow suppresses nothing: the unwrap survives and the
    // malformed suppression itself is reported.
    assert_eq!(rules_of(&kept), vec!["PANIC001", "LINT000"]);
    assert_eq!(kept[0].line, 13);
}

#[test]
fn allow_file_covers_every_line() {
    let (kept, suppressed) = scan_fixture("allow_file.rs", "PANIC001");
    assert!(kept.is_empty(), "unexpected: {kept:?}");
    assert_eq!(suppressed, 2);
}

#[test]
fn cfg_test_items_are_exempt_but_library_code_is_not() {
    let (kept, _) = scan_fixture("cfg_test_scope.rs", "PANIC001");
    assert_eq!(rules_of(&kept), vec!["PANIC001"]);
    assert_eq!(kept[0].line, 2, "only the non-test fn is flagged");
}

#[test]
fn binary_exits_nonzero_on_known_bad_sources() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_crowdkit-lint"))
        .arg("--root")
        .arg(fixtures_root().join("doc_bad"))
        .output()
        .expect("run crowdkit-lint");
    assert!(
        !out.status.success(),
        "a tree with findings must fail the scan"
    );
}

/// The acceptance gate: the workspace scans clean modulo the checked-in
/// ratcheted baseline. Any new finding must be fixed, carry a reasoned
/// suppression, or be consciously added to `LINT_BASELINE.json` before
/// this passes again — and fixed debt must be deleted from the baseline
/// (stale entries fail too), as must suppressions that stopped earning
/// their keep.
#[test]
fn workspace_scans_clean() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the repo root")
        .to_path_buf();
    let mut report = scan(&Config {
        root: repo_root.clone(),
        only_rules: BTreeSet::new(),
    });
    assert!(report.files_scanned > 100, "scan walked the real workspace");
    let baseline_text = std::fs::read_to_string(repo_root.join("LINT_BASELINE.json"))
        .expect("LINT_BASELINE.json is checked in at the repo root");
    let baseline = crowdkit_lint::baseline::parse(&baseline_text).expect("valid baseline");
    crowdkit_lint::engine::apply_baseline(&mut report, &baseline);
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{} {} {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        report.findings.is_empty(),
        "unsuppressed lint findings:\n{}",
        rendered.join("\n")
    );
    assert!(
        report.stale_baseline.is_empty(),
        "stale baseline entries (delete them and decrement burn_down): {:#?}",
        report.stale_baseline
    );
    let stale: Vec<String> = report
        .stale_suppressions()
        .iter()
        .map(|s| format!("{}:{} — {}", s.file, s.line, s.reason))
        .collect();
    assert!(
        stale.is_empty(),
        "suppressions that no longer suppress anything:\n{}",
        stale.join("\n")
    );
}
