//! The rule set. Each rule is a pure function from one file's lexed +
//! analyzed form to findings.
//!
//! Every rule here is derived from a real invariant this workspace has
//! already paid to learn (see DESIGN.md, "Determinism invariants"):
//!
//! * **DET001** — hash-ordered iteration in functions that accumulate
//!   floats or write serialized output (the PR 3 `e16` / `truth::numeric`
//!   bug class: float addition is not associative, so `HashMap` order
//!   leaks into results).
//! * **DET002** — wall-clock reads outside the sanctioned telemetry
//!   boundary (`crowdkit-obs`' wall-clock-segregated event fields).
//! * **PANIC001** — `unwrap`/`expect`/`panic!` in non-test library code.
//! * **SAFETY001** — `unsafe` without an adjacent `// SAFETY:` comment.
//! * **DOC001** — src modules must open with a `//!` module doc;
//!   crate roots must additionally carry the standard lint header.

use std::collections::BTreeSet;

use crate::analyze::Analysis;
use crate::lexer::{Lexed, Tok, Token};

/// One reported rule violation.
#[derive(Debug, Clone, Default)]
pub struct Finding {
    /// Stable rule identifier (`DET001`, …).
    pub rule: &'static str,
    /// Path relative to the scan root.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// What is wrong, specifically.
    pub message: String,
    /// How to fix it (or how to suppress it with a reason).
    pub hint: &'static str,
    /// Rule-specific core of the finding — what it is about (e.g.
    /// `scores.iter` for DET001, `held:core:record` for CONC003). It orders
    /// findings of one rule that share a line.
    pub key: String,
    /// Taint witness chain, outermost call first, seed last. Empty for
    /// intraprocedural findings.
    pub chain: Vec<String>,
}

/// Per-file context the engine passes to the rules.
pub struct FileCtx<'a> {
    /// Path relative to the scan root, with `/` separators.
    pub rel_path: &'a str,
    /// True for `src/lib.rs` files directly under a directory with a
    /// `Cargo.toml` (the crate roots DOC001 governs).
    pub is_crate_root: bool,
}

/// All rule ids, in report order. DET001/DET002 cover both the per-site
/// and the interprocedural (taint-chain) findings; the CONC family is
/// implemented in [`crate::conc`].
pub const ALL_RULES: [&str; 8] = [
    "DET001",
    "DET002",
    "PANIC001",
    "SAFETY001",
    "DOC001",
    "CONC001",
    "CONC002",
    "CONC003",
];

/// Files allowed to read the wall clock without a suppression: the obs
/// event layer is the one sanctioned wall-clock authority (it segregates
/// wall fields out of the determinism boundary by construction).
pub(crate) const DET002_ALLOWLIST: [&str; 1] = ["crates/obs/src/event.rs"];

/// Paths PANIC001 skips wholesale: test and bench harness code, where
/// fail-fast is the correct idiom.
const PANIC001_EXEMPT_DIRS: [&str; 3] = ["/tests/", "/benches/", "/examples/"];

fn ident_is(t: &Token, s: &str) -> bool {
    matches!(&t.tok, Tok::Ident(w) if w == s)
}

fn ident_in(t: &Token, set: &[&str]) -> bool {
    matches!(&t.tok, Tok::Ident(w) if set.iter().any(|s| s == w))
}

fn punct_is(t: &Token, c: char) -> bool {
    matches!(&t.tok, Tok::Punct(p) if *p == c)
}

/// Runs every rule (or the `only` subset) over one file.
pub fn run_rules(
    ctx: &FileCtx<'_>,
    lexed: &Lexed,
    analysis: &Analysis,
    only: &BTreeSet<String>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let want = |rule: &str| only.is_empty() || only.contains(rule);
    if want("DET001") {
        det001(ctx, lexed, analysis, &mut findings);
    }
    if want("DET002") {
        det002(ctx, lexed, analysis, &mut findings);
    }
    if want("PANIC001") {
        panic001(ctx, lexed, analysis, &mut findings);
    }
    if want("SAFETY001") {
        safety001(ctx, lexed, analysis, &mut findings);
    }
    if want("DOC001") {
        doc001(ctx, lexed, &mut findings);
    }
    findings
}

// ---------------------------------------------------------------- DET001

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ORDER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Collects names bound to hash-ordered containers, file-wide: typed
/// bindings/params/fields (`name: [&]HashMap<…>`) and `let` statements
/// whose initializer mentions a hash type (`let m = HashMap::new()`,
/// `…collect::<HashSet<_>>()`).
pub(crate) fn hash_named_bindings(tokens: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        // `name : [&]* [mut] [std :: collections ::] HashMap`
        if punct_is(t, ':') && i >= 1 && !punct_is(&tokens[i - 1], ':') {
            if let Tok::Ident(name) = &tokens[i - 1].tok {
                let mut j = i + 1;
                while j < tokens.len()
                    && (punct_is(&tokens[j], '&')
                        || ident_is(&tokens[j], "mut")
                        || ident_is(&tokens[j], "std")
                        || ident_is(&tokens[j], "collections")
                        || punct_is(&tokens[j], ':'))
                {
                    j += 1;
                }
                if tokens.get(j).is_some_and(|t| ident_in(t, &HASH_TYPES)) {
                    names.insert(name.clone());
                }
            }
        }
        // `let [mut] name … = <stmt mentioning HashMap/HashSet> ;`
        if ident_is(t, "let") {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| ident_is(t, "mut")) {
                j += 1;
            }
            let name = match tokens.get(j).map(|t| &t.tok) {
                Some(Tok::Ident(n)) => n.clone(),
                _ => continue,
            };
            let mut brace = 0i32;
            let mut mentions_hash = false;
            for tk in tokens.iter().skip(j + 1) {
                match &tk.tok {
                    Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => brace += 1,
                    Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => {
                        if brace == 0 {
                            break;
                        }
                        brace -= 1;
                    }
                    Tok::Punct(';') if brace == 0 => break,
                    Tok::Ident(w) if HASH_TYPES.iter().any(|h| h == w) => {
                        mentions_hash = true;
                    }
                    _ => {}
                }
            }
            if mentions_hash {
                names.insert(name);
            }
        }
    }
    names
}

/// True when `tokens[i]` is a hash-bound receiver: `name` or
/// `self . field` with the name in `names`.
fn hash_receiver(tokens: &[Token], i: usize, names: &BTreeSet<String>) -> Option<String> {
    if let Tok::Ident(w) = &tokens[i].tok {
        if names.contains(w) {
            if w == "self" {
                return None;
            }
            return Some(w.clone());
        }
        if i >= 2
            && punct_is(&tokens[i - 1], '.')
            && ident_is(&tokens[i - 2], "self")
            && names.contains(w)
        {
            return Some(format!("self.{w}"));
        }
    }
    None
}

/// What a function body does with accumulated state: float accumulation
/// and/or serialized output. Returns the human "why" when either holds —
/// the contexts where iteration order leaks into results.
pub(crate) fn fold_profile(body: &[Token]) -> Option<&'static str> {
    let mut float_ctx = false;
    let mut plus_eq = false;
    let mut ser_out = false;
    for (k, t) in body.iter().enumerate() {
        match &t.tok {
            Tok::Punct('+') if body.get(k + 1).is_some_and(|n| punct_is(n, '=')) => {
                plus_eq = true;
            }
            Tok::Ident(w) if w == "f64" || w == "f32" => float_ctx = true,
            Tok::Num(n) if n.contains('.') => float_ctx = true,
            // `.sum::<f64>()` — float type within the turbofish.
            Tok::Ident(w)
                if (w == "sum" || w == "product")
                    && body
                        .iter()
                        .skip(k + 1)
                        .take(4)
                        .any(|t| ident_in(t, &["f64", "f32"])) =>
            {
                plus_eq = true;
                float_ctx = true;
            }
            Tok::Ident(w)
                if (w == "write" || w == "writeln")
                    && body.get(k + 1).is_some_and(|n| punct_is(n, '!')) =>
            {
                ser_out = true;
            }
            Tok::Ident(w) if w == "to_json" || w == "push_str" || w == "serialize" => {
                ser_out = true;
            }
            _ => {}
        }
    }
    match (plus_eq && float_ctx, ser_out) {
        (true, true) => Some("accumulates floats and writes serialized output"),
        (true, false) => Some("accumulates floats"),
        (false, true) => Some("writes serialized output"),
        (false, false) => None,
    }
}

/// Hash-ordered iteration sites inside one function body (non-test tokens
/// only): `(line, description)` pairs like `("m.values()", 12)`. Shared
/// by per-site DET001 and the interprocedural taint seeds.
pub(crate) fn hash_iter_sites(
    f: &crate::analyze::FnSpan,
    tokens: &[Token],
    analysis: &Analysis,
    names: &BTreeSet<String>,
) -> Vec<(u32, String)> {
    let body = &tokens[f.body_open..=f.body_close];
    let mut sites = Vec::new();
    for (k, t) in body.iter().enumerate() {
        let abs = f.body_open + k;
        if analysis.is_test[abs] {
            continue;
        }
        // `recv . iter ( )` et al.
        if let Some(recv) = hash_receiver(body, k, names) {
            if body.get(k + 1).is_some_and(|n| punct_is(n, '.'))
                && body.get(k + 2).is_some_and(|n| ident_in(n, &ORDER_METHODS))
                && body.get(k + 3).is_some_and(|n| punct_is(n, '('))
            {
                let method = match &body[k + 2].tok {
                    Tok::Ident(m) => m.clone(),
                    _ => String::new(),
                };
                sites.push((t.line, format!("{recv}.{method}()")));
            }
        }
        // `for pat in [&][mut] recv {`
        if ident_is(t, "for") {
            let mut j = k + 1;
            let mut depth = 0i32;
            while j < body.len() {
                match &body[j].tok {
                    Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                    Tok::Punct('{') if depth == 0 => break,
                    Tok::Ident(w) if w == "in" && depth == 0 => {
                        let mut m = j + 1;
                        while m < body.len()
                            && (punct_is(&body[m], '&') || ident_is(&body[m], "mut"))
                        {
                            m += 1;
                        }
                        let recv_at = if m + 2 < body.len()
                            && ident_is(&body[m], "self")
                            && punct_is(&body[m + 1], '.')
                        {
                            m + 2
                        } else {
                            m
                        };
                        if let Some(recv) = hash_receiver(body, recv_at, names) {
                            // Only a bare binding up to the loop body
                            // (methods on it were handled above).
                            if body.get(recv_at + 1).is_some_and(|n| punct_is(n, '{')) {
                                sites.push((t.line, format!("for … in {recv}")));
                            }
                        }
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }
    sites
}

fn det001(ctx: &FileCtx<'_>, lexed: &Lexed, analysis: &Analysis, out: &mut Vec<Finding>) {
    let tokens = &lexed.tokens;
    let names = hash_named_bindings(tokens);
    if names.is_empty() {
        return;
    }
    for f in &analysis.fns {
        if f.is_test {
            continue;
        }
        let Some(why) = fold_profile(&tokens[f.body_open..=f.body_close]) else {
            continue;
        };
        for (line, desc) in hash_iter_sites(f, tokens, analysis, &names) {
            out.push(Finding {
                rule: "DET001",
                file: ctx.rel_path.to_owned(),
                line,
                message: format!("hash-ordered iteration `{desc}` in a function that {why}"),
                hint: DET001_HINT,
                key: desc,
                ..Finding::default()
            });
        }
    }
}

const DET001_HINT: &str = "use BTreeMap/BTreeSet, sort keys before folding, or keep an \
insertion-order Vec; if order provably cannot reach any output, suppress with \
`// crowdkit-lint: allow(DET001) — <reason>`";

// ---------------------------------------------------------------- DET002

fn det002(ctx: &FileCtx<'_>, lexed: &Lexed, analysis: &Analysis, out: &mut Vec<Finding>) {
    if DET002_ALLOWLIST.contains(&ctx.rel_path) {
        return;
    }
    let tokens = &lexed.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if analysis.is_test[i] {
            continue;
        }
        let flagged = if ident_is(t, "Instant") {
            tokens.get(i + 1).is_some_and(|a| punct_is(a, ':'))
                && tokens.get(i + 2).is_some_and(|a| punct_is(a, ':'))
                && tokens.get(i + 3).is_some_and(|a| ident_is(a, "now"))
        } else {
            ident_is(t, "SystemTime")
        };
        if flagged {
            out.push(Finding {
                rule: "DET002",
                file: ctx.rel_path.to_owned(),
                line: t.line,
                message: "wall-clock read outside the sanctioned telemetry boundary".to_owned(),
                hint: "route timings through crowdkit-obs (`obs::WallTimer` / wall-clock event \
fields); only the obs event layer may read the clock directly. Suppress with \
`// crowdkit-lint: allow(DET002) — <reason>` for genuinely wall-clock-permitted code",
                key: "wall-clock".to_owned(),
                ..Finding::default()
            });
        }
    }
}

// -------------------------------------------------------------- PANIC001

/// Number of top-level commas inside the delimiter group opening at token
/// index `open`. Distinguishes `Option::expect("msg")` (one argument, zero
/// commas) from user-defined multi-argument `expect` methods such as a
/// parser's `self.expect(&Token::LParen, "'('")`.
fn top_level_commas(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut commas = 0usize;
    for t in &tokens[open..] {
        if let Tok::Punct(c) = &t.tok {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return commas;
                    }
                }
                ',' if depth == 1 => commas += 1,
                _ => {}
            }
        }
    }
    commas
}

fn panic001(ctx: &FileCtx<'_>, lexed: &Lexed, analysis: &Analysis, out: &mut Vec<Finding>) {
    if PANIC001_EXEMPT_DIRS
        .iter()
        .any(|d| format!("/{}", ctx.rel_path).contains(d))
    {
        return;
    }
    let tokens = &lexed.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if analysis.is_test[i] {
            continue;
        }
        let what = if punct_is(t, '.')
            && tokens.get(i + 1).is_some_and(|n| ident_is(n, "unwrap"))
            && tokens.get(i + 2).is_some_and(|n| punct_is(n, '('))
        {
            Some(("unwrap()", tokens[i + 1].line))
        } else if punct_is(t, '.')
            && tokens.get(i + 1).is_some_and(|n| ident_is(n, "expect"))
            && tokens.get(i + 2).is_some_and(|n| punct_is(n, '('))
            // `Option/Result::expect` takes exactly one argument; calls
            // with more are user-defined methods (parser combinators).
            && top_level_commas(tokens, i + 2) == 0
        {
            Some(("expect(…)", tokens[i + 1].line))
        } else if ident_is(t, "panic") && tokens.get(i + 1).is_some_and(|n| punct_is(n, '!')) {
            Some(("panic!", t.line))
        } else {
            None
        };
        if let Some((what, line)) = what {
            out.push(Finding {
                rule: "PANIC001",
                file: ctx.rel_path.to_owned(),
                line,
                message: format!("`{what}` in non-test library code"),
                hint: "return a CrowdError (or propagate with `?`); for provably infallible \
sites, suppress with `// crowdkit-lint: allow(PANIC001) — <why it cannot fail>`",
                key: what.to_owned(),
                ..Finding::default()
            });
        }
    }
}

// ------------------------------------------------------------- SAFETY001

fn safety001(ctx: &FileCtx<'_>, lexed: &Lexed, analysis: &Analysis, out: &mut Vec<Finding>) {
    for (i, t) in lexed.tokens.iter().enumerate() {
        if analysis.is_test[i] || !ident_is(t, "unsafe") {
            continue;
        }
        let justified = lexed
            .comments
            .iter()
            .any(|c| c.text.contains("SAFETY:") && c.line + 3 >= t.line && c.line <= t.line);
        if !justified {
            out.push(Finding {
                rule: "SAFETY001",
                file: ctx.rel_path.to_owned(),
                line: t.line,
                message: "`unsafe` without an adjacent `// SAFETY:` justification".to_owned(),
                hint: "document the invariant that makes this sound in a `// SAFETY:` comment \
on or directly above the unsafe block",
                key: "unsafe".to_owned(),
                ..Finding::default()
            });
        }
    }
}

// ---------------------------------------------------------------- DOC001

fn doc001(ctx: &FileCtx<'_>, lexed: &Lexed, out: &mut Vec<Finding>) {
    // Every source module (any `.rs` under a `src/` directory, crate
    // roots included) must open with a `//!` module doc — before the
    // first code token — saying what the module is for.
    if ctx.rel_path.contains("src/") && ctx.rel_path.ends_with(".rs") {
        let first_code_line = lexed.tokens.first().map_or(u32::MAX, |t| t.line);
        let has_module_doc = lexed
            .comments
            .iter()
            .any(|c| !c.trailing && c.text.starts_with('!') && c.line <= first_code_line);
        if !has_module_doc {
            out.push(Finding {
                rule: "DOC001",
                file: ctx.rel_path.to_owned(),
                line: 1,
                message: "source module missing a `//!` module doc header".to_owned(),
                hint: "open every src module with a `//!` doc comment stating what the \
module is and why it exists",
                key: "module-doc".to_owned(),
                ..Finding::default()
            });
        }
    }
    if !ctx.is_crate_root {
        return;
    }
    let tokens = &lexed.tokens;
    let has_inner_attr = |outer: &str, inner: &str| -> bool {
        tokens.windows(7).any(|w| {
            punct_is(&w[0], '#')
                && punct_is(&w[1], '!')
                && punct_is(&w[2], '[')
                && ident_is(&w[3], outer)
                && punct_is(&w[4], '(')
                && ident_is(&w[5], inner)
                && punct_is(&w[6], ')')
        })
    };
    for (outer, inner) in [
        ("warn", "missing_docs"),
        ("warn", "rust_2018_idioms"),
        ("forbid", "unsafe_code"),
    ] {
        if !has_inner_attr(outer, inner) {
            out.push(Finding {
                rule: "DOC001",
                file: ctx.rel_path.to_owned(),
                line: 1,
                message: format!("crate root missing `#![{outer}({inner})]`"),
                hint: "every crate root carries the standard lint header: \
#![warn(missing_docs)], #![warn(rust_2018_idioms)], #![forbid(unsafe_code)]; a crate that \
must opt out suppresses with a written exception",
                key: format!("header:{outer}({inner})"),
                ..Finding::default()
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::lexer::lex;

    fn panic_lines(src: &str) -> Vec<u32> {
        let lexed = lex(src);
        let analysis = analyze(&lexed);
        let ctx = FileCtx {
            rel_path: "crates/x/src/lib.rs",
            is_crate_root: false,
        };
        let mut out = Vec::new();
        panic001(&ctx, &lexed, &analysis, &mut out);
        out.into_iter().map(|f| f.line).collect()
    }

    #[test]
    fn expect_arity_discriminates_std_from_parser_methods() {
        let src = "fn f() {\n\
            self.expect(&Token::LParen, \"'('\")?;\n\
            let x = opt.expect(\"present\");\n\
            let y = opt.expect(fmt(a, b));\n\
            }\n";
        // Line 2 is a two-argument user method — not Option::expect.
        // Line 4's commas sit inside a nested call, so it is one argument.
        assert_eq!(panic_lines(src), vec![3, 4]);
    }
}
