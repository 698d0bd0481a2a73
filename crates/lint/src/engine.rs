//! The scan engine: walks the tree, runs the per-file rules, builds the
//! workspace symbol table + call graph, runs the interprocedural passes
//! (taint, CONC), applies suppressions and the ratcheted baseline, and
//! renders human and JSON reports.
//!
//! # Suppression protocol
//!
//! Suppressions are explicit and auditable. Three forms, all requiring a
//! written reason after a separator (`—`, `--`, or `:`):
//!
//! * trailing, on the offending line:
//!   `let t = x.unwrap(); // crowdkit-lint: allow(PANIC001) — len checked above`
//! * standalone, on the line above the offending line — when that line
//!   opens a block (`fn`, `for`, `impl`, …), the whole block is covered:
//!   `// crowdkit-lint: allow(DET001) — folded into a max, order-free`
//! * file-level, anywhere in the file (conventionally at the top):
//!   `// crowdkit-lint: allow-file(PANIC001) — experiment harness, fail-fast by design`
//!
//! A suppression with no reason does not suppress anything and is itself
//! reported (`LINT000`), so the audit trail cannot silently decay. Every
//! suppression's *hit count* is tracked; `--audit-suppressions` fails on
//! suppressions that no longer suppress anything (stale allows).
//!
//! # Fingerprints and the baseline
//!
//! Every surviving finding gets a stable fingerprint:
//! `fnv1a64(rule | file | scope | key | ordinal)` — the enclosing function
//! name and the rule-specific key rather than the line number, so
//! fingerprints survive unrelated edits above the finding. `--baseline
//! LINT_BASELINE.json` subtracts baselined fingerprints (see
//! [`crate::baseline`]) and fails only on *new* debt and *stale* entries.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::analyze::{analyze, Analysis};
use crate::baseline::{Baseline, BaselineEntry};
use crate::callgraph::CallGraph;
use crate::lexer::{lex, Comment, Lexed, Tok};
use crate::rules::{run_rules, FileCtx, Finding, ALL_RULES};
use crate::symbols::{FileUnit, ResolutionStats, SymbolTable};

/// Scan configuration.
pub struct Config {
    /// Repository root; `crates/` and `src/` under it are scanned.
    pub root: PathBuf,
    /// When non-empty, only these rules run.
    pub only_rules: BTreeSet<String>,
}

/// One suppression comment with its audit state.
#[derive(Debug, Clone)]
pub struct SuppressionRecord {
    /// File containing the comment.
    pub file: String,
    /// Comment line.
    pub line: u32,
    /// Rules it covers.
    pub rules: Vec<String>,
    /// True for `allow-file`.
    pub file_wide: bool,
    /// The written reason.
    pub reason: String,
    /// Findings this suppression absorbed in the last scan. Zero means the
    /// allow is *stale*: the code it excused no longer triggers the rule.
    pub hits: usize,
}

/// Scan output: surviving findings plus suppression/baseline accounting.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed, unbaselined findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings matched by the baseline (acknowledged debt).
    pub baselined: Vec<Finding>,
    /// Baseline entries that matched nothing — debt that was fixed but not
    /// deleted from the file. The ratchet fails on these.
    pub stale_baseline: Vec<BaselineEntry>,
    /// Count of suppressed findings per rule.
    pub suppressed: BTreeMap<String, usize>,
    /// Every suppression comment in the tree, with hit counts.
    pub suppressions: Vec<SuppressionRecord>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Call-site resolution accounting from the symbol table.
    pub resolution: ResolutionStats,
    /// Number of function definitions in the symbol table.
    pub functions: usize,
}

impl Report {
    /// Total suppressed findings across rules.
    pub fn suppressed_total(&self) -> usize {
        self.suppressed.values().sum()
    }

    /// Suppressions whose hit count is zero (stale allows).
    pub fn stale_suppressions(&self) -> Vec<&SuppressionRecord> {
        self.suppressions.iter().filter(|s| s.hits == 0).collect()
    }
}

/// One parsed suppression comment, pre-audit.
struct Suppression {
    rules: Vec<String>,
    /// Line range (inclusive) the suppression covers; `None` = whole file.
    span: Option<(u32, u32)>,
    /// Comment line (for the audit record).
    line: u32,
    file_wide: bool,
    reason: String,
    hits: usize,
}

/// Walks `crates/` and `src/` under the root, collecting `.rs` files.
/// Skips `target/`, `vendor/`, `fixtures/` (lint test data is known-bad
/// on purpose), and hidden directories.
fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut out);
        }
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || name == "target" || name == "vendor" || name == "fixtures" {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Parses `crowdkit-lint: allow(...)` / `allow-file(...)` comments.
/// Returns the suppressions and any malformed-suppression findings.
fn parse_suppressions(
    rel_path: &str,
    lexed: &Lexed,
    analysis: &Analysis,
) -> (Vec<Suppression>, Vec<Finding>) {
    let mut sups = Vec::new();
    let mut bad = Vec::new();
    for c in &lexed.comments {
        // Doc comments (`//!`, `///`) are prose — suppression examples in
        // them must stay inert.
        if c.text.starts_with('!') || c.text.starts_with('/') {
            continue;
        }
        let Some(at) = c.text.find("crowdkit-lint:") else {
            continue;
        };
        let rest = c.text[at + "crowdkit-lint:".len()..].trim_start();
        let (file_wide, rest) = if let Some(r) = rest.strip_prefix("allow-file(") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix("allow(") {
            (false, r)
        } else {
            bad.push(malformed(
                rel_path,
                c,
                "expected `allow(RULE)` or `allow-file(RULE)`",
            ));
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad.push(malformed(rel_path, c, "unclosed rule list"));
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_owned())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() || rules.iter().any(|r| !ALL_RULES.contains(&r.as_str())) {
            bad.push(malformed(rel_path, c, "unknown or empty rule id"));
            continue;
        }
        // The reason: text after the closing paren, past a separator.
        let reason = rest[close + 1..]
            .trim_start()
            .trim_start_matches(['—', '–', '-', ':', ' '])
            .trim();
        if reason.len() < 3 {
            bad.push(malformed(rel_path, c, "missing written reason"));
            continue;
        }
        let span = if file_wide {
            None
        } else if c.trailing {
            Some((c.line, c.line))
        } else {
            // Standalone: covers the next code line; when that line opens
            // a block, the whole block.
            Some(standalone_span(c.line, lexed, analysis))
        };
        sups.push(Suppression {
            rules,
            span,
            line: c.line,
            file_wide,
            reason: reason.to_owned(),
            hits: 0,
        });
    }
    (sups, bad)
}

fn malformed(rel_path: &str, c: &Comment, why: &str) -> Finding {
    Finding {
        rule: "LINT000",
        file: rel_path.to_owned(),
        line: c.line,
        message: format!("malformed suppression: {why}"),
        hint: "format: `// crowdkit-lint: allow(RULE_ID) — <reason>` \
(or allow-file); the reason is mandatory",
        key: "malformed".to_owned(),
        ..Finding::default()
    }
}

/// Computes the line span a standalone suppression at `comment_line`
/// covers: the next code line, extended to the full block when that line
/// opens one before hitting a `;`.
fn standalone_span(comment_line: u32, lexed: &Lexed, analysis: &Analysis) -> (u32, u32) {
    let tokens = &lexed.tokens;
    let Some(first) = tokens.iter().position(|t| t.line > comment_line) else {
        return (comment_line + 1, comment_line + 1);
    };
    let target_line = tokens[first].line;
    let mut i = first;
    while i < tokens.len() {
        match &tokens[i].tok {
            Tok::Punct(';') => break,
            Tok::Punct('{') => {
                if let Some(close) = analysis.brace_match[i] {
                    return (target_line, tokens[close].line);
                }
                break;
            }
            _ => {}
        }
        i += 1;
    }
    (target_line, target_line)
}

/// Whether `path` is a crate root (`src/lib.rs` with a sibling
/// `Cargo.toml` two levels up).
fn is_crate_root(rel: &str, path: &Path) -> bool {
    rel.ends_with("src/lib.rs")
        && path
            .parent()
            .and_then(Path::parent)
            .is_some_and(|crate_dir| crate_dir.join("Cargo.toml").is_file())
}

/// Scans one file in isolation — per-file rules only, no workspace
/// analysis, no fingerprints. The fixture tests use this to pin individual
/// per-site rule behavior. Returns (kept findings, suppressed-per-rule).
pub fn scan_file(
    root: &Path,
    path: &Path,
    only_rules: &BTreeSet<String>,
) -> (Vec<Finding>, BTreeMap<String, usize>) {
    let rel = rel_of(root, path);
    let source = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return (vec![unreadable(&rel, &e)], BTreeMap::new()),
    };
    let lexed = lex(&source);
    let analysis = analyze(&lexed);
    let ctx = FileCtx {
        rel_path: &rel,
        is_crate_root: is_crate_root(&rel, path),
    };
    let raw = run_rules(&ctx, &lexed, &analysis, only_rules);
    let (mut sups, malformed) = parse_suppressions(&rel, &lexed, &analysis);
    let mut kept = Vec::new();
    let mut suppressed: BTreeMap<String, usize> = BTreeMap::new();
    for f in raw {
        if suppress(&mut sups, &f) {
            *suppressed.entry(f.rule.to_owned()).or_insert(0) += 1;
        } else {
            kept.push(f);
        }
    }
    // LINT000 findings (malformed suppressions) are never suppressible.
    kept.extend(malformed);
    (kept, suppressed)
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn unreadable(rel: &str, e: &std::io::Error) -> Finding {
    Finding {
        rule: "LINT000",
        file: rel.to_owned(),
        line: 0,
        message: format!("unreadable source file: {e}"),
        hint: "the scanner must be able to read every source file it governs",
        key: "unreadable".to_owned(),
        ..Finding::default()
    }
}

/// Tries to absorb `f` into one of `sups`; bumps the winner's hit count.
fn suppress(sups: &mut [Suppression], f: &Finding) -> bool {
    for s in sups.iter_mut() {
        let applies = s.rules.iter().any(|r| r == f.rule)
            && match s.span {
                None => true,
                Some((lo, hi)) => f.line >= lo && f.line <= hi,
            };
        if applies {
            s.hits += 1;
            return true;
        }
    }
    false
}

/// FNV-1a, 64-bit — the fingerprint hash. Stable across platforms and
/// releases by construction.
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Scans an explicit file list as one workspace: per-file rules, then the
/// symbol table + call graph, then the interprocedural passes, then
/// suppressions and fingerprints. `scan` and the workspace-level tests
/// both land here.
pub fn scan_paths(root: &Path, files: &[PathBuf], only_rules: &BTreeSet<String>) -> Report {
    let want = |rule: &str| only_rules.is_empty() || only_rules.contains(rule);
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };

    // Phase 1: parse every file, run the per-file rules, collect
    // suppressions.
    let mut units: Vec<FileUnit> = Vec::with_capacity(files.len());
    let mut findings: Vec<Finding> = Vec::new();
    let mut lint000: Vec<Finding> = Vec::new();
    // Suppressions per unit index, applied after the workspace passes.
    let mut sups_by_file: BTreeMap<String, Vec<Suppression>> = BTreeMap::new();
    for path in files {
        let rel = rel_of(root, path);
        let source = match fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                lint000.push(unreadable(&rel, &e));
                continue;
            }
        };
        let unit = crate::symbols::parse_unit(&rel, &source);
        let ctx = FileCtx {
            rel_path: &rel,
            is_crate_root: is_crate_root(&rel, path),
        };
        findings.extend(run_rules(&ctx, &unit.lexed, &unit.analysis, only_rules));
        let (sups, bad) = parse_suppressions(&rel, &unit.lexed, &unit.analysis);
        lint000.extend(bad);
        sups_by_file.insert(rel.clone(), sups);
        units.push(unit);
    }

    // Phase 2: workspace analysis.
    let table = SymbolTable::build(&units);
    let graph = CallGraph::build(&table);
    crate::taint::run(&units, &table, &graph, want, &mut findings);
    crate::conc::run(&units, &table, want, &mut findings);
    report.functions = table.fns.len();
    report.resolution = table.stats.clone();

    // Scope every finding by its enclosing function (used in fingerprints).
    for f in &mut findings {
        if f.scope.is_empty() {
            f.scope = table.scope_at_line(&f.file, f.line);
        }
    }

    // Phase 3: suppressions (hit-tracked), then LINT000, sort, fingerprint.
    let mut kept: Vec<Finding> = Vec::new();
    for f in findings {
        let absorbed = sups_by_file
            .get_mut(&f.file)
            .is_some_and(|sups| suppress(sups, &f));
        if absorbed {
            *report.suppressed.entry(f.rule.to_owned()).or_insert(0) += 1;
        } else {
            kept.push(f);
        }
    }
    kept.extend(lint000);
    kept.sort_by(|a, b| (&a.file, a.line, a.rule, &a.key).cmp(&(&b.file, b.line, b.rule, &b.key)));
    // Ordinals disambiguate repeated (rule, file, scope, key) findings in
    // source order; everything else about the fingerprint is line-free.
    let mut ordinals: BTreeMap<(String, String, String, String), usize> = BTreeMap::new();
    for f in &mut kept {
        let slot = ordinals
            .entry((
                f.rule.to_owned(),
                f.file.clone(),
                f.scope.clone(),
                f.key.clone(),
            ))
            .or_insert(0);
        let ordinal = *slot;
        *slot += 1;
        f.fingerprint = format!(
            "{:016x}",
            fnv1a64(&format!(
                "{}|{}|{}|{}|{}",
                f.rule, f.file, f.scope, f.key, ordinal
            ))
        );
    }
    report.findings = kept;

    // Audit records, in (file, line) order.
    for (file, sups) in sups_by_file {
        for s in sups {
            report.suppressions.push(SuppressionRecord {
                file: file.clone(),
                line: s.line,
                rules: s.rules,
                file_wide: s.file_wide,
                reason: s.reason,
                hits: s.hits,
            });
        }
    }
    report
}

/// Runs the full scan over the configured root.
pub fn scan(config: &Config) -> Report {
    let files = collect_files(&config.root);
    scan_paths(&config.root, &files, &config.only_rules)
}

/// Applies a baseline to a scanned report: findings whose fingerprint is
/// baselined move to `report.baselined`; entries matching nothing land in
/// `report.stale_baseline`. After this, `report.findings` is exactly the
/// *new* debt.
pub fn apply_baseline(report: &mut Report, baseline: &Baseline) {
    let by_fp: BTreeMap<&str, &BaselineEntry> = baseline
        .entries
        .iter()
        .map(|e| (e.fingerprint.as_str(), e))
        .collect();
    let mut matched: BTreeSet<String> = BTreeSet::new();
    let mut new_findings = Vec::new();
    for f in report.findings.drain(..) {
        if by_fp.contains_key(f.fingerprint.as_str()) {
            matched.insert(f.fingerprint.clone());
            report.baselined.push(f);
        } else {
            new_findings.push(f);
        }
    }
    report.findings = new_findings;
    report.stale_baseline = baseline
        .entries
        .iter()
        .filter(|e| !matched.contains(&e.fingerprint))
        .cloned()
        .collect();
}

/// Renders the human-readable report.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{} {} {}\n    hint: {}\n",
            f.file, f.line, f.rule, f.message, f.hint
        ));
        if !f.chain.is_empty() {
            out.push_str(&format!("    chain: {}\n", f.chain.join(" -> ")));
        }
    }
    for e in &report.stale_baseline {
        out.push_str(&format!(
            "{}: STALE baseline entry {} ({}) — the finding no longer exists; delete \
the entry and decrement burn_down\n",
            e.file, e.fingerprint, e.rule
        ));
    }
    out.push_str(&format!(
        "crowdkit-lint: {} file(s), {} fn(s), {} call(s) ({} resolved / {} ambiguous / \
{} unresolved); {} unsuppressed finding(s), {} suppressed, {} baselined\n",
        report.files_scanned,
        report.functions,
        report.resolution.calls,
        report.resolution.resolved,
        report.resolution.ambiguous,
        report.resolution.unresolved,
        report.findings.len(),
        report.suppressed_total(),
        report.baselined.len(),
    ));
    out
}

/// Renders the suppression audit (`--audit-suppressions`): every
/// suppression grouped by rule then file, stale ones flagged.
pub fn render_audit(report: &Report) -> String {
    let mut by_rule: BTreeMap<&str, Vec<&SuppressionRecord>> = BTreeMap::new();
    for s in &report.suppressions {
        for r in &s.rules {
            by_rule.entry(r).or_default().push(s);
        }
    }
    let mut out = String::new();
    let stale = report.stale_suppressions().len();
    for (rule, sups) in &by_rule {
        out.push_str(&format!("{rule}: {} suppression(s)\n", sups.len()));
        for s in sups {
            let kind = if s.file_wide { "allow-file" } else { "allow" };
            let status = if s.hits == 0 {
                "STALE".to_owned()
            } else {
                format!("{} hit(s)", s.hits)
            };
            out.push_str(&format!(
                "  {}:{} [{kind}] {status} — {}\n",
                s.file, s.line, s.reason
            ));
        }
    }
    out.push_str(&format!(
        "crowdkit-lint audit: {} suppression(s), {} stale\n",
        report.suppressions.len(),
        stale
    ));
    out
}

fn json_escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render_finding(f: &Finding, out: &mut String) {
    out.push_str("\n    {\"rule\": ");
    json_escape(f.rule, out);
    out.push_str(", \"file\": ");
    json_escape(&f.file, out);
    out.push_str(&format!(", \"line\": {}, \"scope\": ", f.line));
    json_escape(&f.scope, out);
    out.push_str(", \"key\": ");
    json_escape(&f.key, out);
    out.push_str(", \"fingerprint\": ");
    json_escape(&f.fingerprint, out);
    out.push_str(", \"message\": ");
    json_escape(&f.message, out);
    out.push_str(", \"hint\": ");
    json_escape(f.hint, out);
    if !f.chain.is_empty() {
        out.push_str(", \"chain\": [");
        for (i, link) in f.chain.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json_escape(link, out);
        }
        out.push(']');
    }
    out.push('}');
}

/// Renders the machine-readable report (the `LINT.json` format, v2).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"version\": 2,\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!(
        "  \"unsuppressed\": {},\n  \"suppressed\": {},\n  \"baselined\": {},\n",
        report.findings.len(),
        report.suppressed_total(),
        report.baselined.len(),
    ));
    out.push_str(&format!(
        "  \"callgraph\": {{\"functions\": {}, \"calls\": {}, \"resolved\": {}, \
\"ambiguous\": {}, \"unresolved\": {}, \"distinct_extern_names\": {}}},\n",
        report.functions,
        report.resolution.calls,
        report.resolution.resolved,
        report.resolution.ambiguous,
        report.resolution.unresolved,
        report.resolution.unresolved_names.len(),
    ));
    out.push_str("  \"suppressed_by_rule\": {");
    for (i, (rule, n)) in report.suppressed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        json_escape(rule, &mut out);
        out.push_str(&format!(": {n}"));
    }
    out.push_str("\n  },\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_finding(f, &mut out);
    }
    out.push_str("\n  ],\n  \"baselined_findings\": [");
    for (i, f) in report.baselined.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_finding(f, &mut out);
    }
    out.push_str("\n  ],\n  \"suppressions\": [");
    for (i, s) in report.suppressions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"file\": ");
        json_escape(&s.file, &mut out);
        out.push_str(&format!(", \"line\": {}, \"rules\": [", s.line));
        for (j, r) in s.rules.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            json_escape(r, &mut out);
        }
        out.push_str(&format!(
            "], \"file_wide\": {}, \"hits\": {}, \"reason\": ",
            s.file_wide, s.hits
        ));
        json_escape(&s.reason, &mut out);
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}
