//! Workspace symbol table: function definitions and call sites, resolved
//! best-effort by name.
//!
//! The interprocedural rules (taint propagation, CONC lock analysis) need
//! to know *which function a call lands in*. Without a real type system
//! the table resolves by name: a call site binds to the unique function of
//! that name in the caller's crate, else the unique function of that name
//! in the workspace. Everything else lands in an explicit bucket —
//! `ambiguous` (several same-named candidates) or `unresolved` (no
//! candidate; std/vendored methods) — so resolution precision is a
//! *measured* number in `LINT.json`, not an article of faith.

use std::collections::{BTreeMap, BTreeSet};

use crate::analyze::Analysis;
use crate::lexer::{Lexed, Tok, Token};

/// One parsed source file, ready for workspace-level analysis.
pub struct FileUnit {
    /// Path relative to the scan root, `/`-separated.
    pub rel: String,
    /// Crate the file belongs to (see [`crate_of`]).
    pub crate_name: String,
    /// Token stream + comments.
    pub lexed: Lexed,
    /// Structural pass output.
    pub analysis: Analysis,
}

/// Derives the owning crate from a root-relative path: `crates/<name>/…`
/// belongs to `<name>`, the root `src/` tree to `crowdkit`, anything else
/// (fixtures scanned directly in tests) to `local`.
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("local").to_owned(),
        Some("src") => "crowdkit".to_owned(),
        _ => "local".to_owned(),
    }
}

/// One `fn` item with a body, workspace-wide.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index into [`SymbolTable::fns`].
    pub id: usize,
    /// The function's name (raw identifiers keep their `r#`).
    pub name: String,
    /// Owning crate.
    pub crate_name: String,
    /// File (root-relative).
    pub file: String,
    /// Index of the unit in the slice passed to [`SymbolTable::build`].
    pub unit: usize,
    /// Token index of the `fn` keyword.
    pub kw: usize,
    /// Token index of the body `{`.
    pub body_open: usize,
    /// Token index of the body `}`.
    pub body_close: usize,
    /// Line of the `fn` keyword.
    pub start_line: u32,
    /// Line of the body's closing `}`.
    pub end_line: u32,
    /// True when the signature declares a return type (`->` between the
    /// keyword and the body). Taint only propagates through
    /// value-returning functions.
    pub has_return: bool,
    /// True when the item is test-scoped.
    pub is_test: bool,
}

/// How a call site resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Exactly one candidate — edge in the call graph.
    Resolved(usize),
    /// Multiple same-named candidates; no edge (counted separately so the
    /// precision loss is visible).
    Ambiguous(Vec<usize>),
    /// No workspace function of that name (std, vendored, trait-object).
    Unresolved,
}

/// One call or method-call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Caller [`FnDef`] id.
    pub caller: usize,
    /// Callee name as written.
    pub callee: String,
    /// True for `.name(…)` method syntax.
    pub is_method: bool,
    /// Token index of the callee identifier (for test-scope checks).
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// Name-resolution outcome.
    pub resolution: Resolution,
}

/// Resolution accounting for the whole table.
#[derive(Debug, Default, Clone)]
pub struct ResolutionStats {
    /// Total call sites extracted.
    pub calls: usize,
    /// Sites with a unique candidate.
    pub resolved: usize,
    /// Sites with several candidates.
    pub ambiguous: usize,
    /// Sites with no workspace candidate.
    pub unresolved: usize,
    /// Distinct unresolved callee names (the extern surface).
    pub unresolved_names: BTreeSet<String>,
}

/// The workspace symbol table.
#[derive(Default)]
pub struct SymbolTable {
    /// Every bodied `fn`, in (file, token) order.
    pub fns: Vec<FnDef>,
    /// Every extracted call site, in (file, token) order.
    pub calls: Vec<CallSite>,
    /// Resolution accounting.
    pub stats: ResolutionStats,
}

/// Keywords that can precede `(` without being calls.
const NON_CALL_KEYWORDS: [&str; 18] = [
    "if", "while", "for", "match", "loop", "return", "in", "as", "let", "fn", "impl", "where",
    "move", "ref", "mut", "else", "dyn", "await",
];

/// Ubiquitous std/core method names that must never resolve to a
/// same-named workspace function: calling `.iter()` on a Vec has nothing
/// to do with a local `fn iter`. Plain (non-method) calls are exempt from
/// this list — `iter(…)` written bare is most likely the local function.
const EXTERNAL_METHODS: [&str; 48] = [
    "lock",
    "read",
    "write",
    "unwrap",
    "expect",
    "clone",
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "drain",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "extend",
    "collect",
    "map",
    "filter",
    "fold",
    "sum",
    "min",
    "max",
    "sort",
    "to_owned",
    "to_string",
    "as_str",
    "as_ref",
    "take",
    "next",
    "load",
    "store",
    "swap",
    "new",
    "default",
    "from",
    "into",
    "clear",
    "entry",
    "join",
    "drop",
];

fn is_non_call_keyword(w: &str) -> bool {
    NON_CALL_KEYWORDS.contains(&w)
}

/// True when `w` is on the always-external method-name list.
pub fn is_external_method(w: &str) -> bool {
    EXTERNAL_METHODS.contains(&w)
}

fn punct_is(t: &Token, c: char) -> bool {
    matches!(&t.tok, Tok::Punct(p) if *p == c)
}

impl SymbolTable {
    /// Builds the table over a set of parsed units.
    pub fn build(units: &[FileUnit]) -> Self {
        let mut table = SymbolTable::default();
        for (u, unit) in units.iter().enumerate() {
            collect_fns(u, unit, &mut table.fns);
        }
        // Name indexes for resolution.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_crate_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for f in &table.fns {
            by_name.entry(&f.name).or_default().push(f.id);
            by_crate_name
                .entry((&f.crate_name, &f.name))
                .or_default()
                .push(f.id);
        }
        for (u, unit) in units.iter().enumerate() {
            let fn_ids: Vec<usize> = table
                .fns
                .iter()
                .filter(|f| f.unit == u)
                .map(|f| f.id)
                .collect();
            collect_calls(
                unit,
                &fn_ids,
                &table.fns,
                &by_name,
                &by_crate_name,
                &mut table.calls,
                &mut table.stats,
            );
        }
        table
    }

    /// The innermost function definition containing token `tok` of `unit`,
    /// if any.
    pub fn fn_at(&self, unit: usize, tok: usize) -> Option<usize> {
        self.fns
            .iter()
            .filter(|f| f.unit == unit && f.kw <= tok && tok <= f.body_close)
            .max_by_key(|f| f.kw)
            .map(|f| f.id)
    }

    /// The name of the innermost function covering `line` of file `rel`
    /// (empty when the line sits outside every function). Used for stable
    /// finding fingerprints.
    pub fn scope_at_line(&self, rel: &str, line: u32) -> String {
        self.fns
            .iter()
            .filter(|f| f.file == rel && f.start_line <= line && line <= f.end_line)
            .max_by_key(|f| f.start_line)
            .map(|f| f.name.clone())
            .unwrap_or_default()
    }
}

fn collect_fns(u: usize, unit: &FileUnit, out: &mut Vec<FnDef>) {
    let tokens = &unit.lexed.tokens;
    for span in &unit.analysis.fns {
        let name = match tokens.get(span.kw + 1).map(|t| &t.tok) {
            Some(Tok::Ident(w)) => w.clone(),
            _ => continue,
        };
        // `->` between the signature start and the body `{` means the fn
        // returns a value (over-approximate: `Fn() -> T` bounds count too).
        let mut has_return = false;
        let mut k = span.kw + 1;
        while k + 1 < span.body_open {
            if punct_is(&tokens[k], '-') && punct_is(&tokens[k + 1], '>') {
                has_return = true;
                break;
            }
            k += 1;
        }
        let id = out.len();
        out.push(FnDef {
            id,
            name,
            crate_name: unit.crate_name.clone(),
            file: unit.rel.clone(),
            unit: u,
            kw: span.kw,
            body_open: span.body_open,
            body_close: span.body_close,
            start_line: span.start_line,
            end_line: span.end_line,
            has_return,
            is_test: span.is_test,
        });
    }
}

#[allow(clippy::too_many_arguments)]
fn collect_calls(
    unit: &FileUnit,
    fn_ids: &[usize],
    fns: &[FnDef],
    by_name: &BTreeMap<&str, Vec<usize>>,
    by_crate_name: &BTreeMap<(&str, &str), Vec<usize>>,
    out: &mut Vec<CallSite>,
    stats: &mut ResolutionStats,
) {
    let tokens = &unit.lexed.tokens;
    // Innermost enclosing fn per token: refreshed lazily while scanning.
    let enclosing = |tok: usize| -> Option<usize> {
        fn_ids
            .iter()
            .copied()
            .filter(|&id| fns[id].body_open < tok && tok < fns[id].body_close)
            .max_by_key(|&id| fns[id].body_open)
    };
    let mut i = 0usize;
    while i < tokens.len() {
        // Skip attribute contents: `#[derive(...)]` contains idents
        // followed by `(` that are not calls.
        if punct_is(&tokens[i], '#') {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| punct_is(t, '!')) {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| punct_is(t, '[')) {
                let mut depth = 0usize;
                while j < tokens.len() {
                    if punct_is(&tokens[j], '[') {
                        depth += 1;
                    } else if punct_is(&tokens[j], ']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        let (name, is_method) = match &tokens[i].tok {
            Tok::Ident(w)
                if tokens.get(i + 1).is_some_and(|t| punct_is(t, '('))
                    && !is_non_call_keyword(w) =>
            {
                (w.clone(), i > 0 && punct_is(&tokens[i - 1], '.'))
            }
            _ => {
                i += 1;
                continue;
            }
        };
        // A call after `fn` is the definition's own name+params, not a
        // call (bodyless signatures aren't in `fns`, so `enclosing` can't
        // screen them); same for `fn name(` of the fns we did collect.
        if i > 0 && matches!(&tokens[i - 1].tok, Tok::Ident(w) if w == "fn") {
            i += 1;
            continue;
        }
        let Some(caller) = enclosing(i) else {
            i += 1;
            continue;
        };
        stats.calls += 1;
        let resolution = if is_method && is_external_method(&name) {
            stats.unresolved += 1;
            stats.unresolved_names.insert(name.clone());
            Resolution::Unresolved
        } else {
            let crate_key = (unit.crate_name.as_str(), name.as_str());
            let candidates = by_crate_name
                .get(&crate_key)
                .filter(|v| !v.is_empty())
                .or_else(|| by_name.get(name.as_str()).filter(|v| !v.is_empty()));
            match candidates {
                Some(v) if v.len() == 1 => {
                    stats.resolved += 1;
                    Resolution::Resolved(v[0])
                }
                Some(v) => {
                    stats.ambiguous += 1;
                    Resolution::Ambiguous(v.clone())
                }
                None => {
                    stats.unresolved += 1;
                    stats.unresolved_names.insert(name.clone());
                    Resolution::Unresolved
                }
            }
        };
        out.push(CallSite {
            caller,
            callee: name,
            is_method,
            tok: i,
            line: tokens[i].line,
            resolution,
        });
        i += 1;
    }
}

/// Builds a [`FileUnit`] from raw source — the parse front-end shared by
/// the engine and the unit tests.
pub fn parse_unit(rel: &str, source: &str) -> FileUnit {
    let lexed = crate::lexer::lex(source);
    let analysis = crate::analyze::analyze(&lexed);
    FileUnit {
        rel: rel.to_owned(),
        crate_name: crate_of(rel),
        lexed,
        analysis,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolved_pairs(table: &SymbolTable) -> Vec<(String, String)> {
        table
            .calls
            .iter()
            .filter_map(|c| match c.resolution {
                Resolution::Resolved(id) => {
                    Some((table.fns[c.caller].name.clone(), table.fns[id].name.clone()))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn cross_module_calls_resolve_within_the_crate() {
        let units = vec![
            parse_unit("crates/a/src/lib.rs", "fn top() { helper(1); }"),
            parse_unit("crates/a/src/util.rs", "fn helper(x: u32) -> u32 { x }"),
        ];
        let t = SymbolTable::build(&units);
        assert_eq!(resolved_pairs(&t), vec![("top".into(), "helper".into())]);
        assert_eq!(t.stats.resolved, 1);
    }

    #[test]
    fn method_calls_resolve_by_name_but_std_methods_stay_external() {
        let units = vec![parse_unit(
            "crates/a/src/lib.rs",
            "fn refresh(&self) { self.rebuild(); }\n\
             fn rebuild(&self) { let v: Vec<u32> = Vec::new(); v.clear(); }",
        )];
        let t = SymbolTable::build(&units);
        // `.rebuild()` resolves to the local fn; `.clear()` and `Vec::new()`
        // hit the external bucket (`new` is deny-listed as a method; here it
        // is a path call but ambiguity rules still apply — no local `new`).
        assert_eq!(
            resolved_pairs(&t),
            vec![("refresh".into(), "rebuild".into())]
        );
        assert!(t.stats.unresolved_names.contains("clear"));
    }

    #[test]
    fn shadowed_names_prefer_the_callers_crate_and_cross_crate_uniques_resolve() {
        let units = vec![
            parse_unit(
                "crates/a/src/lib.rs",
                "fn score() -> u32 { 1 }\nfn use_a() { score(); }",
            ),
            parse_unit(
                "crates/b/src/lib.rs",
                "fn score() -> u32 { 2 }\nfn use_b() { score(); }",
            ),
            parse_unit(
                "crates/c/src/lib.rs",
                "fn use_c() { score(); only_in_a(); }",
            ),
            parse_unit("crates/a/src/extra.rs", "fn only_in_a() {}"),
        ];
        let t = SymbolTable::build(&units);
        let pairs = resolved_pairs(&t);
        // a::use_a -> a::score, b::use_b -> b::score.
        assert!(pairs.contains(&("use_a".into(), "score".into())));
        assert!(pairs.contains(&("use_b".into(), "score".into())));
        let a_score = t
            .fns
            .iter()
            .find(|f| f.name == "score" && f.crate_name == "a");
        let resolved_use_a = t
            .calls
            .iter()
            .find(|c| t.fns[c.caller].name == "use_a")
            .map(|c| c.resolution.clone());
        assert_eq!(
            resolved_use_a,
            Some(Resolution::Resolved(
                a_score.map(|f| f.id).unwrap_or(usize::MAX)
            ))
        );
        // c has no `score`: two workspace candidates -> ambiguous bucket.
        let c_score = t
            .calls
            .iter()
            .find(|c| t.fns[c.caller].name == "use_c" && c.callee == "score")
            .map(|c| c.resolution.clone());
        assert!(matches!(c_score, Some(Resolution::Ambiguous(ref v)) if v.len() == 2));
        // `only_in_a` is unique workspace-wide -> resolves cross-crate.
        assert!(pairs.contains(&("use_c".into(), "only_in_a".into())));
        assert_eq!(t.stats.ambiguous, 1);
    }

    #[test]
    fn unresolved_extern_bucket_counts_distinct_names() {
        let units = vec![parse_unit(
            "crates/a/src/lib.rs",
            "fn f(v: &[u32]) -> u32 { v.iter().sum::<u32>() + totally_external(v) }",
        )];
        let t = SymbolTable::build(&units);
        assert_eq!(t.stats.resolved, 0);
        assert!(t.stats.unresolved_names.contains("iter"));
        assert!(t.stats.unresolved_names.contains("totally_external"));
        // `sum::<u32>(` is turbofish syntax — the ident is not directly
        // followed by `(`, so it is (documented) not extracted at all.
        assert!(!t.stats.unresolved_names.contains("sum"));
    }

    #[test]
    fn has_return_and_attribute_skipping() {
        let units = vec![parse_unit(
            "crates/a/src/lib.rs",
            "#[derive(Clone)]\nstruct S;\n\
             fn void() { helper(); }\nfn valued() -> u32 { 3 }\nfn helper() {}",
        )];
        let t = SymbolTable::build(&units);
        let valued = t.fns.iter().find(|f| f.name == "valued").expect("valued");
        let void = t.fns.iter().find(|f| f.name == "void").expect("void");
        assert!(valued.has_return);
        assert!(!void.has_return);
        // `derive(` and `Clone` inside the attribute produced no call.
        assert!(t.calls.iter().all(|c| c.callee != "derive"));
    }
}
